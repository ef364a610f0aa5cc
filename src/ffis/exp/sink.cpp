#include "ffis/exp/sink.hpp"

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "ffis/analysis/stats.hpp"
#include "ffis/util/strfmt.hpp"

namespace ffis::exp {

namespace {

/// How a column's value is spelled: numbers bare, text CSV-escaped or
/// JSON-quoted, flags 0/1 in CSV and false/true in JSONL.
enum class Kind { Number, Text, Flag };

struct Column {
  std::string name;
  Kind kind;
};

/// Every persisted column, in file order: CsvSink's header and JsonlSink's
/// key order.  The storage counters come straight from vfs::FsStats::kFields.
const std::vector<Column>& columns() {
  static const std::vector<Column> cols = [] {
    std::vector<Column> c = {
        {"index", Kind::Number},   {"label", Kind::Text},    {"application", Kind::Text},
        {"fault", Kind::Text},     {"stage", Kind::Number},  {"runs", Kind::Number},
        {"seed", Kind::Number},    {"primitive_count", Kind::Number},
        {"benign", Kind::Number},  {"detected", Kind::Number}, {"sdc", Kind::Number},
        {"crash", Kind::Number},   {"faults_not_fired", Kind::Number}};
    for (const auto& f : vfs::FsStats::kFields) c.push_back({f.name, Kind::Number});
    c.insert(c.end(), {{"execute_ms", Kind::Number},
                       {"analyze_ms", Kind::Number},
                       {"analyze_skipped", Kind::Number},
                       {"golden_cached", Kind::Flag},
                       {"checkpointed", Kind::Flag},
                       {"checkpoint_loaded", Kind::Flag},
                       {"worker_id", Kind::Text},
                       {"error", Kind::Text}});
    return c;
  }();
  return cols;
}

const std::string& csv_header() {
  static const std::string header = [] {
    std::string h;
    for (const Column& c : columns()) h += (h.empty() ? "" : ",") + c.name;
    return h;
  }();
  return header;
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Splits one CSV record, honoring RFC-4180 quoting.
std::vector<std::string> split_csv_record(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field += c;
    }
  }
  if (quoted) throw std::invalid_argument("CSV record has an unterminated quote: " + line);
  fields.push_back(std::move(field));
  return fields;
}

std::uint64_t parse_u64(const std::string& s, const char* what) {
  const auto v = util::parse_u64(s);
  if (!v) throw std::invalid_argument(std::string("bad ") + what + " value: '" + s + "'");
  return *v;
}

int parse_i32(const std::string& s, const char* what) {
  const auto v = util::parse_int(s);
  if (!v) throw std::invalid_argument(std::string("bad ") + what + " value: '" + s + "'");
  return *v;
}

double parse_ms(const std::string& s, const char* what) {
  try {
    std::size_t consumed = 0;
    const double v = std::stod(s, &consumed);
    if (consumed != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("bad ") + what + " value: '" + s + "'");
  }
}

/// Milliseconds with fixed sub-microsecond precision — enough for phase
/// timers, stable across locales and round-trippable by parse_ms.
std::string format_ms(double ms) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.4f", ms);
  return buf;
}

/// The row's values in columns() order, unescaped; flags as "0"/"1".
std::vector<std::string> values_of(const SinkRow& row) {
  const auto num = [](auto v) { return std::to_string(v); };
  const auto flag = [](bool b) { return std::string(b ? "1" : "0"); };
  std::vector<std::string> v = {num(row.index),
                                row.label,
                                row.application,
                                row.fault,
                                num(row.stage),
                                num(row.runs),
                                num(row.seed),
                                num(row.primitive_count),
                                num(row.tally.count(core::Outcome::Benign)),
                                num(row.tally.count(core::Outcome::Detected)),
                                num(row.tally.count(core::Outcome::Sdc)),
                                num(row.tally.count(core::Outcome::Crash)),
                                num(row.faults_not_fired)};
  for (const auto& f : vfs::FsStats::kFields) v.push_back(num(row.fs.*f.member));
  v.insert(v.end(), {format_ms(row.execute_ms), format_ms(row.analyze_ms),
                     num(row.analyze_skipped), flag(row.golden_cached),
                     flag(row.checkpointed), flag(row.checkpoint_loaded), row.worker_id,
                     row.error});
  return v;
}

/// One parsed record: column name -> raw (unescaped) value.
using Record = std::map<std::string, std::string>;

/// Inverse of values_of, shared by both readers.  Every column is required.
SinkRow row_of(const Record& rec) {
  const auto get = [&](const std::string& key) -> const std::string& {
    const auto it = rec.find(key);
    if (it == rec.end()) throw std::invalid_argument("record missing key: " + key);
    return it->second;
  };
  const auto u64 = [&](const char* key) { return parse_u64(get(key), key); };
  const auto ms = [&](const char* key) { return parse_ms(get(key), key); };
  const auto flag = [&](const char* key) {
    const std::string& v = get(key);
    if (v != "0" && v != "1" && v != "false" && v != "true") {
      throw std::invalid_argument(std::string("bad ") + key + " value: '" + v + "'");
    }
    return v == "1" || v == "true";
  };
  SinkRow row;
  row.index = static_cast<std::size_t>(u64("index"));
  row.label = get("label");
  row.application = get("application");
  row.fault = get("fault");
  row.stage = parse_i32(get("stage"), "stage");
  row.runs = u64("runs");
  row.seed = u64("seed");
  row.primitive_count = u64("primitive_count");
  row.tally.add(core::Outcome::Benign, u64("benign"));
  row.tally.add(core::Outcome::Detected, u64("detected"));
  row.tally.add(core::Outcome::Sdc, u64("sdc"));
  row.tally.add(core::Outcome::Crash, u64("crash"));
  row.faults_not_fired = u64("faults_not_fired");
  for (const auto& f : vfs::FsStats::kFields) row.fs.*f.member = u64(f.name);
  row.execute_ms = ms("execute_ms");
  row.analyze_ms = ms("analyze_ms");
  row.analyze_skipped = u64("analyze_skipped");
  row.golden_cached = flag("golden_cached");
  row.checkpointed = flag("checkpointed");
  row.checkpoint_loaded = flag("checkpoint_loaded");
  row.worker_id = get("worker_id");
  row.error = get("error");
  return row;
}

}  // namespace

SinkRow to_sink_row(const CellResult& result) {
  SinkRow row;
  row.index = result.index;
  row.label = result.cell.label;
  row.application = result.cell.app != nullptr ? result.cell.app->name() : "";
  row.fault = result.cell.fault;
  row.stage = result.cell.stage;
  row.runs = result.runs_completed;
  row.seed = result.cell.seed;
  row.primitive_count = result.primitive_count;
  row.tally = result.tally;
  row.faults_not_fired = result.faults_not_fired;
  row.fs = result.fs;
  row.execute_ms = result.execute_ms;
  row.analyze_ms = result.analyze_ms;
  row.analyze_skipped = result.analyze_skipped;
  row.golden_cached = result.golden_cached;
  row.checkpointed = result.checkpointed;
  row.checkpoint_loaded = result.checkpoint_loaded;
  for (const std::uint32_t id : result.worker_ids) {
    if (!row.worker_id.empty()) row.worker_id += '+';
    row.worker_id += std::to_string(id);
  }
  row.error = result.error;
  return row;
}

// --- ConsoleTableSink --------------------------------------------------------

void ConsoleTableSink::begin(const ExperimentPlan& plan) {
  (void)plan;
  std::fprintf(out_, "%s\n", analysis::outcome_row_header().c_str());
}

void ConsoleTableSink::cell(const CellResult& result) {
  if (!result.error.empty()) {
    std::fprintf(out_, "%-12s FAILED: %s\n", result.cell.label.c_str(),
                 result.error.c_str());
    return;
  }
  std::fprintf(out_, "%s", analysis::format_outcome_row(result.cell.label,
                                                        result.tally).c_str());
  if (show_primitive_count_) {
    std::fprintf(out_, "   (%llu primitive executions)",
                 static_cast<unsigned long long>(result.primitive_count));
  }
  std::fprintf(out_, "\n");
  std::fflush(out_);
}

void ConsoleTableSink::end(const ExperimentReport& report) {
  std::fprintf(out_, "[%zu cells, %llu runs; %llu golden execution%s, %llu served "
                     "from cache; %llu checkpoint capture%s (%.1f MiB held), "
                     "%llu reused; %llu analys%s skipped by extent diff%s]\n",
               report.cells.size(), static_cast<unsigned long long>(report.total_runs),
               static_cast<unsigned long long>(report.golden_executions),
               report.golden_executions == 1 ? "" : "s",
               static_cast<unsigned long long>(report.golden_cache_hits),
               static_cast<unsigned long long>(report.checkpoint_builds),
               report.checkpoint_builds == 1 ? "" : "s",
               static_cast<double>(report.checkpoint_bytes) / (1024.0 * 1024.0),
               static_cast<unsigned long long>(report.checkpoint_cache_hits),
               static_cast<unsigned long long>(report.analyses_skipped),
               report.analyses_skipped == 1 ? "is" : "es",
               report.cancelled ? "; CANCELLED" : "");
  // Media-layer summary, only when a block device actually corrupted or
  // rejected something.  Splits the Detected tally by *how* the failure
  // surfaced: detected_crc counts runs whose scrub rejected a sector read,
  // detected_io_error the rest (reported syscall errors and analysis-visible
  // deviations).
  if (report.fs.sectors_faulted + report.fs.crc_detected > 0) {
    std::uint64_t detected_io_error = 0;
    for (const auto& cell : report.cells) detected_io_error += cell.detected_io_error();
    std::fprintf(out_, "[media: %llu sector%s faulted, %llu scrub rejection%s; "
                       "detected split: %llu detected_io_error + %llu detected_crc]\n",
                 static_cast<unsigned long long>(report.fs.sectors_faulted),
                 report.fs.sectors_faulted == 1 ? "" : "s",
                 static_cast<unsigned long long>(report.fs.crc_detected),
                 report.fs.crc_detected == 1 ? "" : "s",
                 static_cast<unsigned long long>(detected_io_error),
                 static_cast<unsigned long long>(report.detected_crc));
  }
  // Persistent-store traffic, only when a checkpoint_dir was in play.
  if (report.checkpoints_loaded + report.checkpoints_persisted + report.goldens_loaded +
          report.goldens_persisted >
      0) {
    std::fprintf(out_, "[checkpoint store: %llu checkpoint%s + %llu golden%s loaded, "
                       "%llu + %llu persisted]\n",
                 static_cast<unsigned long long>(report.checkpoints_loaded),
                 report.checkpoints_loaded == 1 ? "" : "s",
                 static_cast<unsigned long long>(report.goldens_loaded),
                 report.goldens_loaded == 1 ? "" : "s",
                 static_cast<unsigned long long>(report.checkpoints_persisted),
                 static_cast<unsigned long long>(report.goldens_persisted));
    std::fprintf(out_, "[store cache: %llu hit%s, %llu miss%s, %llu eviction%s "
                       "(%llu bytes), %llu gc run%s]\n",
                 static_cast<unsigned long long>(report.store_hits),
                 report.store_hits == 1 ? "" : "s",
                 static_cast<unsigned long long>(report.store_misses),
                 report.store_misses == 1 ? "" : "es",
                 static_cast<unsigned long long>(report.store_evictions),
                 report.store_evictions == 1 ? "" : "s",
                 static_cast<unsigned long long>(report.store_bytes_evicted),
                 static_cast<unsigned long long>(report.store_gc_runs),
                 report.store_gc_runs == 1 ? "" : "s");
  }
  // Fleet summary, only for distributed (dist::Coordinator) campaigns.  The
  // CI gates grep for "units re-granted" and "replayed from journal", so
  // keep the phrasing stable and only append to this line.
  if (report.workers_connected > 0) {
    std::fprintf(out_, "[distributed: %llu worker%s connected, %llu unit%s re-granted, "
                       "%llu replayed from journal, %llu reconnect%s, "
                       "%llu heartbeat timeout%s]\n",
                 static_cast<unsigned long long>(report.workers_connected),
                 report.workers_connected == 1 ? "" : "s",
                 static_cast<unsigned long long>(report.units_regranted),
                 report.units_regranted == 1 ? "" : "s",
                 static_cast<unsigned long long>(report.units_replayed_from_journal),
                 static_cast<unsigned long long>(report.worker_reconnects),
                 report.worker_reconnects == 1 ? "" : "s",
                 static_cast<unsigned long long>(report.heartbeat_timeouts),
                 report.heartbeat_timeouts == 1 ? "" : "s");
  }
}

// --- CsvSink -----------------------------------------------------------------

const char* CsvSink::header() { return csv_header().c_str(); }

void CsvSink::begin(const ExperimentPlan& plan) {
  (void)plan;
  out_ << csv_header() << '\n';
}

void CsvSink::cell(const CellResult& result) {
  const std::vector<std::string> values = values_of(to_sink_row(result));
  for (std::size_t i = 0; i < values.size(); ++i) {
    out_ << (i == 0 ? "" : ",") << csv_escape(values[i]);
  }
  out_ << '\n';
}

void CsvSink::end(const ExperimentReport& report) {
  (void)report;
  out_.flush();
}

// --- JsonlSink ---------------------------------------------------------------

void JsonlSink::cell(const CellResult& result) {
  const std::vector<std::string> values = values_of(to_sink_row(result));
  const std::vector<Column>& cols = columns();
  out_ << '{';
  for (std::size_t i = 0; i < values.size(); ++i) {
    out_ << (i == 0 ? "\"" : ",\"") << cols[i].name << "\":";
    switch (cols[i].kind) {
      case Kind::Number: out_ << values[i]; break;
      case Kind::Text: out_ << '"' << json_escape(values[i]) << '"'; break;
      case Kind::Flag: out_ << (values[i] == "1" ? "true" : "false"); break;
    }
  }
  out_ << "}\n";
}

void JsonlSink::end(const ExperimentReport& report) {
  (void)report;
  out_.flush();
}

// --- MultiSink ---------------------------------------------------------------

void MultiSink::begin(const ExperimentPlan& plan) {
  for (auto* s : sinks_) s->begin(plan);
}

void MultiSink::cell(const CellResult& result) {
  for (auto* s : sinks_) s->cell(result);
}

void MultiSink::end(const ExperimentReport& report) {
  for (auto* s : sinks_) s->end(report);
}

// --- readers -----------------------------------------------------------------

namespace {

void skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
}

void expect(const std::string& s, std::size_t& i, char c) {
  if (i >= s.size() || s[i] != c) {
    throw std::invalid_argument(std::string("expected '") + c + "' in JSONL record: " + s);
  }
  ++i;
}

std::string parse_json_string(const std::string& s, std::size_t& i) {
  expect(s, i, '"');
  std::string out;
  while (i < s.size() && s[i] != '"') {
    if (s[i] == '\\') {
      ++i;
      if (i >= s.size()) break;
      switch (s[i]) {
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (i + 4 >= s.size()) throw std::invalid_argument("bad \\u escape");
          out += static_cast<char>(std::stoi(s.substr(i + 1, 4), nullptr, 16));
          i += 4;
          break;
        }
        default: out += s[i];
      }
      ++i;
    } else {
      out += s[i++];
    }
  }
  expect(s, i, '"');
  return out;
}

/// A string's contents, or a bare token (number, true/false) as written.
std::string parse_json_value(const std::string& s, std::size_t& i) {
  if (i < s.size() && s[i] == '"') return parse_json_string(s, i);
  std::string out;
  while (i < s.size() && s[i] != ',' && s[i] != '}') out += s[i++];
  while (!out.empty() && (out.back() == ' ' || out.back() == '\t')) out.pop_back();
  return out;
}

/// Minimal parser for the flat JSON objects JsonlSink emits: string, number
/// and boolean values only, no nesting.
Record parse_json_object(const std::string& line) {
  Record rec;
  std::size_t i = 0;
  skip_ws(line, i);
  expect(line, i, '{');
  skip_ws(line, i);
  if (i < line.size() && line[i] == '}') return rec;
  for (;;) {
    skip_ws(line, i);
    const std::string key = parse_json_string(line, i);
    skip_ws(line, i);
    expect(line, i, ':');
    skip_ws(line, i);
    rec[key] = parse_json_value(line, i);
    skip_ws(line, i);
    if (i >= line.size()) throw std::invalid_argument("unterminated JSON object");
    if (line[i] == ',') {
      ++i;
      continue;
    }
    expect(line, i, '}');
    return rec;
  }
}

/// True when `record` ends inside an open RFC-4180 quote — i.e. the logical
/// record continues on the next physical line (quoted fields may contain
/// newlines; CsvSink writes them for error messages).
bool record_is_open(const std::string& record) {
  bool quoted = false;
  for (std::size_t i = 0; i < record.size(); ++i) {
    if (record[i] != '"') continue;
    if (quoted && i + 1 < record.size() && record[i + 1] == '"') {
      ++i;  // escaped quote inside a quoted field
    } else {
      quoted = !quoted;
    }
  }
  return quoted;
}

}  // namespace

std::vector<SinkRow> read_csv_results(std::istream& in) {
  const std::vector<Column>& cols = columns();
  std::vector<SinkRow> rows;
  std::string line;
  std::string record;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (record.empty()) {
      if (line.empty() || line == "\r") continue;
      record = line;
    } else {
      record += '\n';
      record += line;
    }
    if (record_is_open(record)) continue;  // quoted newline: keep accumulating
    // CRLF tolerance: strip the line ending only at a record boundary, so a
    // quoted field containing "\r\n" keeps its carriage return.
    if (record.back() == '\r') record.pop_back();
    if (!saw_header) {
      if (record != csv_header()) {
        throw std::invalid_argument("CSV document does not start with the CsvSink header; "
                                    "expected: " + csv_header());
      }
      saw_header = true;
    } else {
      std::vector<std::string> fields = split_csv_record(record);
      if (fields.size() != cols.size()) {
        throw std::invalid_argument("CSV record has " + std::to_string(fields.size()) +
                                    " fields, expected " + std::to_string(cols.size()));
      }
      Record rec;
      for (std::size_t i = 0; i < cols.size(); ++i) rec[cols[i].name] = std::move(fields[i]);
      rows.push_back(row_of(rec));
    }
    record.clear();
  }
  if (!record.empty()) {
    throw std::invalid_argument("CSV document ends inside a quoted field");
  }
  if (!saw_header) throw std::invalid_argument("empty CSV document");
  return rows;
}

std::vector<SinkRow> read_jsonl_results(std::istream& in) {
  std::vector<SinkRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    rows.push_back(row_of(parse_json_object(line)));
  }
  return rows;
}

}  // namespace ffis::exp
