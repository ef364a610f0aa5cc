#pragma once
// scalar.dat serialization: QMCPACK's per-step text output.  Writes go
// through the VFS in flush-sized pwrite chunks so that injected faults land
// in realistic write granularities (header write + several data-buffer
// flushes per series).  A series is rendered to text once (RenderedSeries)
// and every run replays the same pwrite sequence from that text.

#include <string>
#include <vector>

#include "ffis/apps/qmc/vmc.hpp"
#include "ffis/vfs/file_system.hpp"

namespace ffis::qmc {

struct ScalarIoOptions {
  std::size_t flush_bytes = 4096;  ///< buffered-writer flush threshold
};

/// Renders the canonical header line ("#   index   LocalEnergy ...").
[[nodiscard]] std::string scalar_header();

/// Renders one row exactly as the writer emits it.
[[nodiscard]] std::string format_row(const ScalarRow& row);

/// A series as the writer emits it: the header and every row in `text`, and
/// the end offset within `text` of each pwrite — first the header, then one
/// per flush of whole rows, which a stdio-buffered fprintf loop issues each
/// time its buffer reaches `flush_bytes` (and once more for the remainder).
struct RenderedSeries {
  std::string text;
  std::vector<std::size_t> write_ends;
};

[[nodiscard]] RenderedSeries render_series(const std::vector<ScalarRow>& rows,
                                           const ScalarIoOptions& options = {});

/// Issues the series' pwrites in order.  Each lands where the byte counts
/// returned by the earlier ones say the file ends, so a short write shifts
/// every later one, as in the buffered loop.
void write_scalar_file(vfs::FileSystem& fs, const std::string& path,
                       const RenderedSeries& series);

/// render_series, then write_scalar_file.
void write_scalar_file(vfs::FileSystem& fs, const std::string& path,
                       const std::vector<ScalarRow>& rows,
                       const ScalarIoOptions& options = {});

}  // namespace ffis::qmc
