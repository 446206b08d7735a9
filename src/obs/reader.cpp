#include "obs/reader.hpp"

#include <cmath>
#include <cstdlib>
#include <istream>

#include "util/error.hpp"

namespace bgl::obs {

EventType event_type_from(std::string_view name) {
  if (name == "sim_begin") return EventType::kSimBegin;
  if (name == "job_submit") return EventType::kJobSubmit;
  if (name == "predictor_query") return EventType::kPredictorQuery;
  if (name == "sched_decision") return EventType::kSchedDecision;
  if (name == "job_start") return EventType::kJobStart;
  if (name == "migration") return EventType::kMigration;
  if (name == "node_failure") return EventType::kNodeFailure;
  if (name == "job_kill") return EventType::kJobKill;
  if (name == "checkpoint") return EventType::kCheckpoint;
  if (name == "node_repair") return EventType::kNodeRepair;
  if (name == "job_finish") return EventType::kJobFinish;
  if (name == "machine_state") return EventType::kMachineState;
  if (name == "metrics") return EventType::kMetrics;
  if (name == "sim_end") return EventType::kSimEnd;
  return EventType::kUnknown;
}

const char* to_string(EventType type) {
  switch (type) {
    case EventType::kSimBegin: return "sim_begin";
    case EventType::kJobSubmit: return "job_submit";
    case EventType::kPredictorQuery: return "predictor_query";
    case EventType::kSchedDecision: return "sched_decision";
    case EventType::kJobStart: return "job_start";
    case EventType::kMigration: return "migration";
    case EventType::kNodeFailure: return "node_failure";
    case EventType::kJobKill: return "job_kill";
    case EventType::kCheckpoint: return "checkpoint";
    case EventType::kNodeRepair: return "node_repair";
    case EventType::kJobFinish: return "job_finish";
    case EventType::kMachineState: return "machine_state";
    case EventType::kMetrics: return "metrics";
    case EventType::kSimEnd: return "sim_end";
    case EventType::kUnknown: break;
  }
  return "unknown";
}

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw ParseError("trace line " + std::to_string(line) + ": " + what);
}

/// Minimal scanner over one flat JSON object. Positions are byte offsets
/// into the line; the trace schema has no nested containers.
class LineScanner {
 public:
  LineScanner(std::string_view text, std::size_t line) : text_(text), line_(line) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool done() const { return pos_ >= text_.size(); }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void expect(char c) {
    if (peek() != c) {
      fail(line_, std::string("expected '") + c + "' at column " +
                      std::to_string(pos_ + 1));
    }
    ++pos_;
  }

  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  /// Parse a JSON string (opening quote already expected) into `out`.
  void parse_string(std::string& out) {
    expect('"');
    out.clear();
    while (true) {
      if (done()) fail(line_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (done()) fail(line_, "dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail(line_, "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail(line_, "bad \\u escape");
          }
          // The sink only escapes control bytes; decode BMP code points to
          // UTF-8 so round-trips are lossless.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail(line_, std::string("unknown escape '\\") + esc + "'");
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail(line_, "malformed number");
    if (consume('.') && digits() == 0) fail(line_, "malformed number fraction");
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (digits() == 0) fail(line_, "malformed number exponent");
    }
    const std::string token(text_.substr(start, pos_ - start));
    return std::strtod(token.c_str(), nullptr);
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::size_t column() const { return pos_ + 1; }

 private:
  std::string_view text_;
  std::size_t line_;
  std::size_t pos_ = 0;
};

}  // namespace

const TraceRecord::Field* TraceRecord::find(std::string_view key) const {
  for (std::size_t i = 0; i < num_fields_; ++i) {
    if (fields_[i].key == key) return &fields_[i];
  }
  return nullptr;
}

bool TraceRecord::has(std::string_view key) const { return find(key) != nullptr; }

std::optional<double> TraceRecord::num(std::string_view key) const {
  const Field* f = find(key);
  if (f == nullptr || f->kind != Kind::kNumber) return std::nullopt;
  return f->number;
}

std::optional<std::string_view> TraceRecord::str(std::string_view key) const {
  const Field* f = find(key);
  if (f == nullptr || f->kind != Kind::kString) return std::nullopt;
  return std::string_view(f->text);
}

std::optional<bool> TraceRecord::boolean(std::string_view key) const {
  const Field* f = find(key);
  if (f == nullptr || f->kind != Kind::kBool) return std::nullopt;
  return f->flag;
}

namespace {
[[noreturn]] void missing(const TraceRecord& r, std::string_view key,
                          const char* kind) {
  fail(r.line_number(), std::string(to_string(r.type())) + " event missing " +
                            kind + " field \"" + std::string(key) + "\"");
}
}  // namespace

double TraceRecord::require_num(std::string_view key) const {
  const auto v = num(key);
  if (!v) missing(*this, key, "numeric");
  return *v;
}

std::int64_t TraceRecord::require_int(std::string_view key) const {
  const double v = require_num(key);
  // [-2^63, 2^63) is int64's range; both bounds are exact doubles, and NaN
  // fails the comparison.
  if (!(v >= -0x1p63 && v < 0x1p63) || v != std::trunc(v)) {
    fail(line_number(), std::string(to_string(type())) + " event field \"" +
                            std::string(key) + "\" is not an integer");
  }
  return static_cast<std::int64_t>(v);
}

std::string_view TraceRecord::require_str(std::string_view key) const {
  const auto v = str(key);
  if (!v) missing(*this, key, "string");
  return *v;
}

bool TraceRecord::require_bool(std::string_view key) const {
  const auto v = boolean(key);
  if (!v) missing(*this, key, "boolean");
  return *v;
}

TraceReader::TraceReader(std::istream& in) : in_(&in) {}

bool TraceReader::next(TraceRecord& record) {
  while (std::getline(*in_, line_)) {
    ++line_number_;
    bool blank = true;
    for (const char c : line_) {
      if (c != ' ' && c != '\t' && c != '\r') {
        blank = false;
        break;
      }
    }
    if (blank) continue;
    TraceReader::parse_line(line_, line_number_, record);
    return true;
  }
  return false;
}

void TraceReader::parse_line(std::string_view line, std::size_t line_number,
                             TraceRecord& record) {
  const std::size_t line_number_ = line_number;  // for fail() messages below
  {
    record.num_fields_ = 0;
    record.line_number_ = line_number_;
    LineScanner s(line, line_number_);
    s.skip_ws();
    s.expect('{');
    bool first = true;
    while (true) {
      s.skip_ws();
      if (s.consume('}')) break;
      if (!first) {
        s.expect(',');
        s.skip_ws();
      }
      first = false;
      if (record.num_fields_ == record.fields_.size()) {
        record.fields_.emplace_back();
      }
      TraceRecord::Field& f = record.fields_[record.num_fields_];
      s.parse_string(f.key);
      s.skip_ws();
      s.expect(':');
      s.skip_ws();
      const char c = s.peek();
      if (c == '"') {
        f.kind = TraceRecord::Kind::kString;
        s.parse_string(f.text);
      } else if (c == 't') {
        if (!s.consume_word("true")) fail(line_number_, "malformed literal");
        f.kind = TraceRecord::Kind::kBool;
        f.flag = true;
      } else if (c == 'f') {
        if (!s.consume_word("false")) fail(line_number_, "malformed literal");
        f.kind = TraceRecord::Kind::kBool;
        f.flag = false;
      } else if (c == 'n') {
        if (!s.consume_word("null")) fail(line_number_, "malformed literal");
        f.kind = TraceRecord::Kind::kNull;
      } else if (c == '{' || c == '[') {
        fail(line_number_, "nested containers are not part of the trace schema");
      } else {
        f.kind = TraceRecord::Kind::kNumber;
        f.number = s.parse_number();
      }
      ++record.num_fields_;
    }
    s.skip_ws();
    if (!s.done()) fail(line_number_, "trailing bytes after the JSON object");

    const auto type = record.str("type");
    if (!type) fail(line_number_, "missing mandatory \"type\" field");
    record.type_name_.assign(type->data(), type->size());
    record.type_ = event_type_from(record.type_name_);
    const auto t = record.num("t");
    if (!t) fail(line_number_, "missing mandatory \"t\" field");
    record.t_ = *t;
  }
}

// --- typed decoders ---

SimBeginEvent SimBeginEvent::from(const TraceRecord& r) {
  SimBeginEvent e;
  e.t = r.t();
  e.machine = std::string(r.require_str("machine"));
  e.nodes = static_cast<int>(r.require_int("nodes"));
  e.topology = std::string(r.require_str("topology"));
  e.scheduler = std::string(r.require_str("scheduler"));
  e.policy = std::string(r.require_str("policy"));
  e.predictor = std::string(r.require_str("predictor"));
  e.alpha = r.require_num("alpha");
  e.backfill = std::string(r.require_str("backfill"));
  e.migration = r.require_bool("migration");
  e.jobs = r.require_int("jobs");
  e.failure_events = r.require_int("failure_events");
  if (const auto c = r.str("catalog")) e.catalog = std::string(*c);
  if (const auto m = r.num("min_block")) e.min_block = static_cast<int>(*m);
  if (const auto a = r.str("algorithm")) e.algorithm = std::string(*a);
  return e;
}

JobSubmitEvent JobSubmitEvent::from(const TraceRecord& r) {
  JobSubmitEvent e;
  e.t = r.t();
  e.job = r.require_int("job");
  e.size = static_cast<int>(r.require_int("size"));
  e.alloc_size = static_cast<int>(r.require_int("alloc_size"));
  e.estimate = r.require_num("estimate");
  e.runtime = r.require_num("runtime");
  return e;
}

PredictorQueryEvent PredictorQueryEvent::from(const TraceRecord& r) {
  PredictorQueryEvent e;
  e.t = r.t();
  e.job = r.require_int("job");
  e.window_start = r.require_num("window_start");
  e.window_end = r.require_num("window_end");
  e.nodes_flagged = static_cast<int>(r.require_int("nodes_flagged"));
  return e;
}

SchedDecisionEvent SchedDecisionEvent::from(const TraceRecord& r) {
  SchedDecisionEvent e;
  e.t = r.t();
  e.job = r.require_int("job");
  e.policy = std::string(r.require_str("policy"));
  e.entry = static_cast<int>(r.require_int("entry"));
  e.candidates = static_cast<int>(r.require_int("candidates"));
  e.l_mfp = r.require_num("l_mfp");
  e.l_pf = r.require_num("l_pf");
  e.e_loss = r.require_num("e_loss");
  e.mfp_after = static_cast<int>(r.require_int("mfp_after"));
  e.flags_in_chosen = static_cast<int>(r.require_int("flags_in_chosen"));
  e.backfill = r.require_bool("backfill");
  if (const auto rt = r.num("res_time")) e.res_time = *rt;
  if (const auto re = r.num("res_entry")) e.res_entry = static_cast<int>(*re);
  return e;
}

JobStartEvent JobStartEvent::from(const TraceRecord& r) {
  JobStartEvent e;
  e.t = r.t();
  e.job = r.require_int("job");
  e.entry = static_cast<int>(r.require_int("entry"));
  e.alloc_size = static_cast<int>(r.require_int("alloc_size"));
  e.wait_so_far = r.require_num("wait_so_far");
  e.restarts = static_cast<int>(r.require_int("restarts"));
  return e;
}

MigrationEvent MigrationEvent::from(const TraceRecord& r) {
  MigrationEvent e;
  e.t = r.t();
  e.job = r.require_int("job");
  e.from_entry = static_cast<int>(r.require_int("from_entry"));
  e.to_entry = static_cast<int>(r.require_int("to_entry"));
  return e;
}

NodeFailureEvent NodeFailureEvent::from(const TraceRecord& r) {
  NodeFailureEvent e;
  e.t = r.t();
  e.node = static_cast<int>(r.require_int("node"));
  e.victims = static_cast<int>(r.require_int("victims"));
  e.down_for = r.require_num("down_for");
  e.down = r.boolean("down").value_or(false);
  return e;
}

NodeRepairEvent NodeRepairEvent::from(const TraceRecord& r) {
  NodeRepairEvent e;
  e.t = r.t();
  e.node = static_cast<int>(r.require_int("node"));
  return e;
}

JobKillEvent JobKillEvent::from(const TraceRecord& r) {
  JobKillEvent e;
  e.t = r.t();
  e.job = r.require_int("job");
  e.entry = static_cast<int>(r.require_int("entry"));
  e.elapsed = r.require_num("elapsed");
  e.work_lost = r.require_num("work_lost");
  e.work_saved = r.require_num("work_saved");
  e.restarts = static_cast<int>(r.require_int("restarts"));
  return e;
}

CheckpointEvent CheckpointEvent::from(const TraceRecord& r) {
  CheckpointEvent e;
  e.t = r.t();
  e.job = r.require_int("job");
  e.count = r.require_int("count");
  e.work_saved = r.require_num("work_saved");
  return e;
}

JobFinishEvent JobFinishEvent::from(const TraceRecord& r) {
  JobFinishEvent e;
  e.t = r.t();
  e.job = r.require_int("job");
  e.entry = static_cast<int>(r.require_int("entry"));
  e.wait = r.require_num("wait");
  e.response = r.require_num("response");
  e.bounded_slowdown = r.require_num("bounded_slowdown");
  e.restarts = static_cast<int>(r.require_int("restarts"));
  return e;
}

MachineStateEvent MachineStateEvent::from(const TraceRecord& r) {
  MachineStateEvent e;
  e.t = r.t();
  e.queue_depth = static_cast<int>(r.require_int("queue_depth"));
  e.queued_nodes = static_cast<int>(r.require_int("queued_nodes"));
  e.running_jobs = static_cast<int>(r.require_int("running_jobs"));
  e.free_nodes = static_cast<int>(r.require_int("free_nodes"));
  e.down_nodes = static_cast<int>(r.require_int("down_nodes"));
  e.mfp = static_cast<int>(r.require_int("mfp"));
  e.frag = r.require_num("frag");
  e.flagged_nodes = static_cast<int>(r.require_int("flagged_nodes"));
  return e;
}

MetricsEvent MetricsEvent::from(const TraceRecord& r) {
  MetricsEvent e;
  e.t = r.t();
  e.queue_depth = static_cast<int>(r.require_int("queue_depth"));
  e.queued_nodes = static_cast<int>(r.require_int("queued_nodes"));
  e.running_jobs = static_cast<int>(r.require_int("running_jobs"));
  e.busy_nodes = static_cast<int>(r.require_int("busy_nodes"));
  e.down_nodes = static_cast<int>(r.require_int("down_nodes"));
  e.utilization = r.require_num("utilization");
  e.interval = r.require_num("interval");
  e.submits = r.require_int("submits");
  e.starts = r.require_int("starts");
  e.finishes = r.require_int("finishes");
  e.kills = r.require_int("kills");
  e.migrations = r.require_int("migrations");
  e.finished_per_hour = r.require_num("finished_per_hour");
  e.decisions = r.require_int("decisions");
  e.decision_us_p50 = r.require_num("decision_us_p50");
  e.decision_us_p99 = r.require_num("decision_us_p99");
  e.decision_us_max = r.require_num("decision_us_max");
  // Forecast-quality fields: optional so pre-predictor traces stay readable.
  if (const auto tp = r.num("pred_tp")) e.pred_tp = static_cast<std::int64_t>(*tp);
  if (const auto fp = r.num("pred_fp")) e.pred_fp = static_cast<std::int64_t>(*fp);
  if (const auto fn = r.num("pred_fn")) e.pred_fn = static_cast<std::int64_t>(*fn);
  return e;
}

SimEndEvent SimEndEvent::from(const TraceRecord& r) {
  SimEndEvent e;
  e.t = r.t();
  e.jobs_completed = r.require_int("jobs_completed");
  e.span = r.require_num("span");
  e.avg_wait = r.require_num("avg_wait");
  e.avg_response = r.require_num("avg_response");
  e.avg_bounded_slowdown = r.require_num("avg_bounded_slowdown");
  e.utilization = r.require_num("utilization");
  e.unused = r.require_num("unused");
  e.lost = r.require_num("lost");
  e.job_kills = r.require_int("job_kills");
  e.migrations = r.require_int("migrations");
  e.checkpoints = r.require_int("checkpoints");
  e.work_lost_node_seconds = r.require_num("work_lost_node_seconds");
  return e;
}

}  // namespace bgl::obs
