#include "scenario/ScenarioLoader.h"

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "faults/PlanCheck.h"
#include "scenario/ScnParser.h"
#include "trace/TraceFormat.h"

namespace vg::scenario {

namespace {

using faults::PlanEntry;

[[noreturn]] void fail(const ScnEntry& e, const std::string& msg) {
  throw ScnError{e.line, "[" + e.section + "] " + e.key + ": " + msg};
}

std::uint64_t parse_u64(const ScnEntry& e, const std::string& tok,
                        const std::string& what) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (errno != 0 || end != tok.c_str() + tok.size() || tok.empty() ||
      tok.front() == '-') {
    fail(e, what + " '" + tok + "' is not an unsigned integer");
  }
  return v;
}

std::int64_t parse_i64(const ScnEntry& e, const std::string& tok,
                       const std::string& what) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(tok.c_str(), &end, 10);
  if (errno != 0 || end != tok.c_str() + tok.size() || tok.empty()) {
    fail(e, what + " '" + tok + "' is not an integer");
  }
  return v;
}

double parse_double(const ScnEntry& e, const std::string& tok,
                    const std::string& what) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (errno != 0 || end != tok.c_str() + tok.size() || tok.empty() ||
      !std::isfinite(v)) {
    fail(e, what + " '" + tok + "' is not a finite number");
  }
  return v;
}

bool parse_bool(const ScnEntry& e, const std::string& tok) {
  if (tok == "on" || tok == "true") return true;
  if (tok == "off" || tok == "false") return false;
  fail(e, "'" + tok + "' is not a boolean (on/off/true/false)");
}

/// Every time and span a `.scn` names is capped at 2^62 ns (about 146
/// years), the cap trace times and plan windows share: a window end, start
/// plus duration, then stays inside int64, and faults::check_plan rejects
/// one past the cap.
constexpr std::int64_t kMaxScnNs = faults::kMaxPlanNs;

[[noreturn]] void fail_past_cap(const ScnEntry& e, const std::string& what,
                                const std::string& tok) {
  fail(e, what + " '" + tok + "' is past the 2^62 ns time cap");
}

/// A duration >= 0 and at most kMaxScnNs: a decimal count of units (\p per_s
/// of them to the second), or an exact "<ns>ns" count (the serializer falls
/// back to the latter when no decimal string round-trips). Both bounds are
/// checked on the parsed number, before sim::from_seconds turns it into int64
/// nanoseconds, which past int64 would be undefined.
sim::Duration parse_nonneg_duration(const ScnEntry& e, const std::string& tok,
                                    const std::string& what,
                                    double per_s = 1.0) {
  const auto negative = [&] {
    fail(e, what + " must be >= 0, got '" + tok + "'");
  };
  if (tok.size() > 2 && tok.compare(tok.size() - 2, 2, "ns") == 0) {
    const std::int64_t ns = parse_i64(e, tok.substr(0, tok.size() - 2), what);
    if (ns < 0) negative();
    if (ns > kMaxScnNs) fail_past_cap(e, what, tok);
    return sim::Duration{ns};
  }
  const double s = parse_double(e, tok, what) / per_s;
  // from_seconds truncates toward zero: a value comes out negative exactly
  // when it is -1 ns or less.
  if (s * 1e9 <= -1.0) negative();
  if (s * 1e9 > static_cast<double>(kMaxScnNs)) fail_past_cap(e, what, tok);
  return sim::from_seconds(s);
}

/// Seconds kept as a double (the capture loop's gap model), at most
/// kMaxScnNs like every other time.
double parse_seconds(const ScnEntry& e, const std::string& tok,
                     const std::string& what) {
  const double s = parse_double(e, tok, what);
  if (s * 1e9 > static_cast<double>(kMaxScnNs)) fail_past_cap(e, what, tok);
  return s;
}

net::IpAddress parse_ip(const ScnEntry& e, const std::string& tok) {
  try {
    return net::IpAddress::parse(tok);
  } catch (const std::exception&) {
    fail(e, "'" + tok + "' is not a dotted-quad IPv4 address");
  }
}

std::uint16_t parse_port(const ScnEntry& e, const std::string& tok,
                         const std::string& what) {
  const std::uint64_t v = parse_u64(e, tok, what);
  if (v == 0 || v > 65535) fail(e, what + " must be in [1, 65535]");
  return static_cast<std::uint16_t>(v);
}

void need_tokens(const ScnEntry& e, const std::vector<std::string>& toks,
                 std::size_t n, const std::string& shape) {
  if (toks.size() < n) fail(e, "expected '" + shape + "'");
}

/// "key=value" named argument, or nullopt when \p tok has no '='.
std::optional<std::pair<std::string, std::string>> named_arg(
    const std::string& tok) {
  const std::size_t eq = tok.find('=');
  if (eq == std::string::npos) return std::nullopt;
  return std::make_pair(tok.substr(0, eq), tok.substr(eq + 1));
}

double parse_prob(const ScnEntry& e, const std::string& tok,
                  const std::string& what) {
  const double v = parse_double(e, tok, what);
  if (v < 0.0 || v > 1.0) fail(e, what + " must be in [0, 1]");
  return v;
}

/// Milliseconds, with parse_nonneg_duration's "<ns>ns" fallback and bounds.
sim::Duration parse_extra_ms(const ScnEntry& e, const std::string& v) {
  return parse_nonneg_duration(e, v, "extra_ms", 1000.0);
}

// --- per-section decoders ---------------------------------------------------

faults::LinkFault decode_link_fault(const ScnEntry& e) {
  const auto toks = scn_tokens(e.value);
  need_tokens(e, toks, 4, "<lan|wan> <flap|burst|latency> <start_s> <dur_s>");
  faults::LinkFault f;
  if (toks[0] == "lan") {
    f.where = faults::LinkFault::Where::kLan;
  } else if (toks[0] == "wan") {
    f.where = faults::LinkFault::Where::kWan;
  } else {
    fail(e, "unknown link target '" + toks[0] + "' (expected lan or wan)");
  }
  if (toks[1] == "flap") {
    f.kind = faults::LinkFault::Kind::kFlap;
  } else if (toks[1] == "burst") {
    f.kind = faults::LinkFault::Kind::kBurst;
  } else if (toks[1] == "latency") {
    f.kind = faults::LinkFault::Kind::kLatencySpike;
  } else {
    fail(e, "unknown link fault kind '" + toks[1] +
                "' (expected flap, burst or latency)");
  }
  f.start = parse_nonneg_duration(e, toks[2], "start");
  f.duration = parse_nonneg_duration(e, toks[3], "duration");
  for (std::size_t i = 4; i < toks.size(); ++i) {
    const auto kv = named_arg(toks[i]);
    if (!kv) fail(e, "expected name=value argument, got '" + toks[i] + "'");
    const bool burst = f.kind == faults::LinkFault::Kind::kBurst;
    if (kv->first == "extra_ms") {
      if (f.kind != faults::LinkFault::Kind::kLatencySpike) {
        fail(e, "extra_ms only applies to latency faults");
      }
      f.extra_latency = parse_extra_ms(e, kv->second);
    } else if (kv->first == "enter" && burst) {
      f.ge.p_enter_bad = parse_prob(e, kv->second, "enter");
    } else if (kv->first == "exit" && burst) {
      f.ge.p_exit_bad = parse_prob(e, kv->second, "exit");
    } else if (kv->first == "loss_good" && burst) {
      f.ge.loss_good = parse_prob(e, kv->second, "loss_good");
    } else if (kv->first == "loss_bad" && burst) {
      f.ge.loss_bad = parse_prob(e, kv->second, "loss_bad");
    } else {
      fail(e, "unknown or misplaced argument '" + kv->first + "' for a " +
                  toks[1] + " fault");
    }
  }
  return f;
}

/// Capture times become trace timestamps (ms -> ns), which the trace format
/// caps at trace::kMaxTraceNs.
constexpr std::int64_t kMaxCaptureMs = trace::kMaxTraceNs / 1'000'000;

void check_trace_time(const ScnEntry& e, std::int64_t end_ms) {
  if (end_ms > kMaxCaptureMs) {
    fail(e, "ends at " + std::to_string(end_ms) +
                " ms, past the trace time cap (" +
                std::to_string(kMaxCaptureMs) + " ms = 2^62 ns)");
  }
}

CaptureOp decode_capture_op(const ScnEntry& e) {
  const auto toks = scn_tokens(e.value);
  CaptureOp op;
  if (e.key == "dns") {
    need_tokens(e, toks, 3, "<avs|google> <ip> <at_ms>");
    op.kind = CaptureOp::Kind::kDns;
    if (toks[0] == "avs") {
      op.domain = trace::kDomainAvs;
    } else if (toks[0] == "google") {
      op.domain = trace::kDomainGoogle;
    } else {
      fail(e, "unknown domain '" + toks[0] + "' (expected avs or google)");
    }
    op.ip = parse_ip(e, toks[1]);
    op.at_ms = parse_i64(e, toks[2], "at_ms");
  } else if (e.key == "flow") {
    need_tokens(e, toks, 5, "<tcp|udp> <sport> <server-ip> <dport> <at_ms>");
    op.kind = CaptureOp::Kind::kFlow;
    if (toks[0] == "tcp") {
      op.proto = net::Protocol::kTcp;
    } else if (toks[0] == "udp") {
      op.proto = net::Protocol::kUdp;
    } else {
      fail(e, "unknown protocol '" + toks[0] + "' (expected tcp or udp)");
    }
    op.sport = parse_port(e, toks[1], "sport");
    op.ip = parse_ip(e, toks[2]);
    op.dport = parse_port(e, toks[3], "dport");
    op.at_ms = parse_i64(e, toks[4], "at_ms");
  } else if (e.key == "signature") {
    need_tokens(e, toks, 2, "<flow> <at_ms>");
    op.kind = CaptureOp::Kind::kSignature;
    op.flow = static_cast<int>(parse_u64(e, toks[0], "flow"));
    op.at_ms = parse_i64(e, toks[1], "at_ms");
  } else if (e.key == "tls" || e.key == "datagram") {
    need_tokens(e, toks, 4, "<flow> <up|down> <len> <at_ms>");
    op.kind = e.key == "tls" ? CaptureOp::Kind::kTls
                             : CaptureOp::Kind::kDatagram;
    op.flow = static_cast<int>(parse_u64(e, toks[0], "flow"));
    if (toks[1] == "up") {
      op.upstream = true;
    } else if (toks[1] == "down") {
      op.upstream = false;
    } else {
      fail(e, "unknown direction '" + toks[1] + "' (expected up or down)");
    }
    op.len = static_cast<std::uint32_t>(parse_u64(e, toks[2], "len"));
    op.at_ms = parse_i64(e, toks[3], "at_ms");
  } else if (e.key == "spike") {
    need_tokens(e, toks, 3, "<flow> <at_ms> <len...>");
    op.kind = CaptureOp::Kind::kSpike;
    op.flow = static_cast<int>(parse_u64(e, toks[0], "flow"));
    op.at_ms = parse_i64(e, toks[1], "at_ms");
    for (std::size_t i = 2; i < toks.size(); ++i) {
      op.lens.push_back(
          static_cast<std::uint32_t>(parse_u64(e, toks[i], "len")));
    }
  } else {
    fail(e, "unknown capture op");
  }
  if (op.at_ms < 0) fail(e, "at_ms must be >= 0");
  check_trace_time(e, op.at_ms);
  return op;
}

ExpectedSpike decode_expect(const ScnEntry& e) {
  const auto toks = scn_tokens(e.value);
  need_tokens(e, toks, 6, "<flow_id> <tcp|udp> <at_ms> <class> <rule> <len...>");
  ExpectedSpike sp;
  sp.flow_id = parse_u64(e, toks[0], "flow_id");
  if (sp.flow_id == 0) fail(e, "flow_id is 1-based, got 0");
  if (toks[1] == "udp") {
    sp.udp = true;
  } else if (toks[1] == "tcp") {
    sp.udp = false;
  } else {
    fail(e, "unknown transport '" + toks[1] + "' (expected tcp or udp)");
  }
  sp.at_ms = parse_i64(e, toks[2], "at_ms");
  check_trace_time(e, sp.at_ms);
  const auto cls = parse_spike_class(toks[3]);
  if (!cls) fail(e, "unknown spike class '" + toks[3] + "'");
  sp.cls = *cls;
  const auto rule = parse_matched_rule(toks[4]);
  if (!rule) fail(e, "unknown matched rule '" + toks[4] + "'");
  sp.rule = *rule;
  for (std::size_t i = 5; i < toks.size(); ++i) {
    sp.prefix.push_back(
        static_cast<std::uint32_t>(parse_u64(e, toks[i], "len")));
  }
  return sp;
}

// --- cross-field validation -------------------------------------------------

struct Decoder {
  ScenarioSpec spec;
  std::map<std::pair<std::string, std::string>, int> scalar_lines;
  std::map<std::string, const ScnEntry*> first_in_section;
  int kind_line{1};
  bool has_loop_keys{false};
  const ScnEntry* loop_entry{nullptr};
  const ScnEntry* first_command{nullptr};
  const ScnEntry* drain_entry{nullptr};
  std::vector<const ScnEntry*> capture_entries;
  /// The line of every [faults]/[fleet_faults] plan entry, per plan list:
  /// what turns a checker's entry index into a line.
  std::array<std::vector<const ScnEntry*>, PlanEntry::kLists> plan_entries;

  void record(PlanEntry::List list, const ScnEntry& e) {
    plan_entries[static_cast<std::size_t>(list)].push_back(&e);
  }
  const ScnEntry& entry_of(PlanEntry at) const {
    return *plan_entries[static_cast<std::size_t>(at.list)][at.index];
  }
  /// Throws at the defect's entry, naming the line of the one it collides
  /// with.
  [[noreturn]] void fail_at(const faults::PlanDefect& d) const {
    std::string msg = d.message;
    if (d.other) msg += " line " + std::to_string(entry_of(*d.other).line);
    fail(entry_of(d.entry), msg);
  }

  void once(const ScnEntry& e) {
    auto [it, inserted] =
        scalar_lines.emplace(std::make_pair(e.section, e.key), e.line);
    if (!inserted) {
      fail(e, "duplicate key (already set at line " +
                  std::to_string(it->second) + ")");
    }
  }

  std::string one_token(const ScnEntry& e) {
    const auto toks = scn_tokens(e.value);
    if (toks.size() != 1) fail(e, "expected a single value");
    return toks[0];
  }

  void decode(const ScnEntry& e) {
    first_in_section.emplace(e.section, &e);
    if (e.section == "scenario") {
      decode_scenario(e);
    } else if (e.section == "home") {
      decode_home(e);
    } else if (e.section == "guard") {
      decode_guard(e);
    } else if (e.section == "schedule") {
      decode_schedule(e);
    } else if (e.section == "chain") {
      decode_chain(e);
    } else if (e.section == "faults") {
      decode_faults(e);
    } else if (e.section == "population") {
      decode_population(e);
    } else if (e.section == "fleet_faults") {
      decode_fleet_faults(e);
    } else if (e.section == "capture") {
      decode_capture(e);
    } else {
      throw ScnError{e.line, "unknown section [" + e.section + "]"};
    }
  }

  void decode_scenario(const ScnEntry& e) {
    once(e);
    if (e.key == "name") {
      const std::string tok = one_token(e);
      for (const char c : tok) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                        c == '.';
        if (!ok) fail(e, "name may only use [A-Za-z0-9._-]");
      }
      spec.name = tok;
    } else if (e.key == "kind") {
      const auto k = parse_kind(one_token(e));
      if (!k) fail(e, "unknown kind (expected home, chain or synthetic)");
      spec.kind = *k;
      kind_line = e.line;
    } else if (e.key == "seed") {
      spec.seed = parse_u64(e, one_token(e), "seed");
    } else if (e.key == "speaker") {
      const auto s = parse_speaker(one_token(e));
      if (!s) fail(e, "unknown speaker (expected echo_dot or home_mini)");
      spec.speaker = *s;
    } else {
      fail(e, "unknown key in [scenario]");
    }
  }

  void decode_home(const ScnEntry& e) {
    once(e);
    if (e.key == "testbed") {
      const auto t = parse_testbed(one_token(e));
      if (!t) fail(e, "unknown testbed (expected house, apartment or office)");
      spec.home.testbed = *t;
    } else if (e.key == "deployment") {
      const auto v = parse_u64(e, one_token(e), "deployment");
      if (v != 1 && v != 2) fail(e, "deployment must be 1 or 2");
      spec.home.deployment = static_cast<int>(v);
    } else if (e.key == "owners") {
      const auto v = parse_u64(e, one_token(e), "owners");
      if (v < 1 || v > 8) fail(e, "owners must be in [1, 8]");
      spec.home.owners = static_cast<int>(v);
    } else if (e.key == "watch") {
      spec.home.watch = parse_bool(e, one_token(e));
    } else if (e.key == "motion_sensor") {
      spec.home.motion_sensor = parse_bool(e, one_token(e));
    } else {
      fail(e, "unknown key in [home]");
    }
  }

  void decode_guard(const ScnEntry& e) {
    once(e);
    if (e.key == "mode") {
      const auto m = parse_guard_mode(one_token(e));
      if (!m) fail(e, "unknown mode (expected voiceguard, naive or monitor)");
      spec.guard.mode = *m;
    } else if (e.key == "fail_policy") {
      const auto p = parse_fail_policy(one_token(e));
      if (!p) fail(e, "unknown policy (expected fail-closed or fail-open)");
      spec.guard.fail_policy = *p;
    } else if (e.key == "verdict_timeout_s") {
      spec.guard.verdict_timeout =
          parse_nonneg_duration(e, one_token(e), "verdict_timeout_s");
    } else if (e.key == "hold_queue_cap") {
      const auto v = parse_u64(e, one_token(e), "hold_queue_cap");
      if (v > 100000) fail(e, "hold_queue_cap must be <= 100000");
      spec.guard.hold_queue_cap = static_cast<int>(v);
    } else if (e.key == "fcm_max_retries") {
      const auto v = parse_u64(e, one_token(e), "fcm_max_retries");
      if (v > 16) fail(e, "fcm_max_retries must be <= 16");
      spec.guard.fcm_max_retries = static_cast<int>(v);
    } else if (e.key == "fcm_retry_initial_s") {
      spec.guard.fcm_retry_initial =
          parse_nonneg_duration(e, one_token(e), "fcm_retry_initial_s");
      if (spec.guard.fcm_retry_initial.ns() == 0) {
        fail(e, "fcm_retry_initial_s must be > 0");
      }
    } else {
      fail(e, "unknown key in [guard]");
    }
  }

  void decode_schedule(const ScnEntry& e) {
    if (e.key == "command") {
      const auto toks = scn_tokens(e.value);
      need_tokens(e, toks, 2, "<at_s> <legit|attack>");
      if (toks.size() > 2) fail(e, "expected '<at_s> <legit|attack>'");
      CommandStep step;
      step.at = parse_nonneg_duration(e, toks[0], "at_s");
      if (toks[1] == "attack") {
        step.attack = true;
      } else if (toks[1] == "legit") {
        step.attack = false;
      } else {
        fail(e, "expected legit or attack, got '" + toks[1] + "'");
      }
      if (step.at < sim::seconds(2)) {
        fail(e, "command offsets must be >= 2 s (the owner teleports 1 s "
                "before each command)");
      }
      if (!spec.schedule.commands.empty() &&
          step.at <= spec.schedule.commands.back().at) {
        fail(e, "command offsets must be strictly increasing");
      }
      if (first_command == nullptr) first_command = &e;
      spec.schedule.commands.push_back(step);
      return;
    }
    once(e);
    if (e.key == "drain_s") {
      spec.schedule.drain = parse_nonneg_duration(e, one_token(e), "drain_s");
      drain_entry = &e;
    } else if (e.key == "commands") {
      const auto v = parse_u64(e, one_token(e), "commands");
      if (v < 1 || v > 64) fail(e, "commands must be in [1, 64]");
      spec.schedule.loop_commands = static_cast<int>(v);
      has_loop_keys = true;
      loop_entry = &e;
    } else if (e.key == "boot_s") {
      spec.schedule.boot = parse_nonneg_duration(e, one_token(e), "boot_s");
      has_loop_keys = true;
    } else if (e.key == "gap_base_s") {
      spec.schedule.gap_base_s = parse_seconds(e, one_token(e), "gap_base_s");
      if (spec.schedule.gap_base_s < 4.0) {
        fail(e, "gap_base_s must be >= 4 (the recognizer's idle gap is 3 s)");
      }
      has_loop_keys = true;
    } else if (e.key == "gap_jitter_s") {
      spec.schedule.gap_jitter_s =
          parse_seconds(e, one_token(e), "gap_jitter_s");
      if (spec.schedule.gap_jitter_s < 0) fail(e, "gap_jitter_s must be >= 0");
      has_loop_keys = true;
    } else if (e.key == "tail_s") {
      spec.schedule.tail = parse_nonneg_duration(e, one_token(e), "tail_s");
      has_loop_keys = true;
    } else {
      fail(e, "unknown key in [schedule]");
    }
  }

  void decode_chain(const ScnEntry& e) {
    once(e);
    if (e.key == "avs_migration_s") {
      spec.chain.avs_migration_mean =
          parse_nonneg_duration(e, one_token(e), "avs_migration_s");
    } else if (e.key == "misc_connection_s") {
      spec.chain.misc_connection_mean =
          parse_nonneg_duration(e, one_token(e), "misc_connection_s");
    } else if (e.key == "quic_probability") {
      spec.chain.quic_probability =
          parse_prob(e, one_token(e), "quic_probability");
    } else {
      fail(e, "unknown key in [chain]");
    }
  }

  void decode_faults(const ScnEntry& e) {
    if (e.key == "link") {
      spec.faults.links.push_back(decode_link_fault(e));
      record(PlanEntry::List::kLinks, e);
    } else if (e.key == "cloud") {
      const auto toks = scn_tokens(e.value);
      need_tokens(e, toks, 3, "<start_s> <dur_s> <rst|norst>");
      faults::CloudOutage f;
      f.start = parse_nonneg_duration(e, toks[0], "start");
      f.duration = parse_nonneg_duration(e, toks[1], "duration");
      if (toks[2] == "rst") {
        f.rst_existing = true;
      } else if (toks[2] == "norst") {
        f.rst_existing = false;
      } else {
        fail(e, "expected rst or norst, got '" + toks[2] + "'");
      }
      spec.faults.cloud.push_back(f);
      record(PlanEntry::List::kCloud, e);
    } else if (e.key == "brownout") {
      const auto toks = scn_tokens(e.value);
      need_tokens(e, toks, 3, "<start_s> <dur_s> extra_ms=X");
      faults::CloudBrownout f;
      f.start = parse_nonneg_duration(e, toks[0], "start");
      f.duration = parse_nonneg_duration(e, toks[1], "duration");
      for (std::size_t i = 2; i < toks.size(); ++i) {
        const auto kv = named_arg(toks[i]);
        if (!kv) fail(e, "expected name=value argument, got '" + toks[i] + "'");
        if (kv->first == "extra_ms") {
          f.extra_latency = parse_extra_ms(e, kv->second);
        } else {
          fail(e, "unknown argument '" + kv->first + "'");
        }
      }
      if (f.extra_latency.ns() == 0) {
        fail(e, "a brownout needs extra_ms > 0 (use 'cloud' for refusal)");
      }
      spec.faults.brownouts.push_back(f);
      record(PlanEntry::List::kBrownouts, e);
    } else if (e.key == "fcm") {
      const auto toks = scn_tokens(e.value);
      need_tokens(e, toks, 2, "<start_s> <dur_s> [delay_s=X] [drop=P]");
      faults::FcmFault f;
      f.start = parse_nonneg_duration(e, toks[0], "start");
      f.duration = parse_nonneg_duration(e, toks[1], "duration");
      for (std::size_t i = 2; i < toks.size(); ++i) {
        const auto kv = named_arg(toks[i]);
        if (!kv) fail(e, "expected name=value argument, got '" + toks[i] + "'");
        if (kv->first == "delay_s") {
          f.extra_delay = parse_nonneg_duration(e, kv->second, "delay_s");
        } else if (kv->first == "drop") {
          f.drop_prob = parse_prob(e, kv->second, "drop");
        } else {
          fail(e, "unknown argument '" + kv->first + "'");
        }
      }
      spec.faults.fcm.push_back(f);
      record(PlanEntry::List::kFcm, e);
    } else if (e.key == "device") {
      const auto toks = scn_tokens(e.value);
      need_tokens(e, toks, 3, "<index> <start_s> <dur_s>");
      faults::DeviceFault f;
      f.device = static_cast<int>(parse_u64(e, toks[0], "device index"));
      f.start = parse_nonneg_duration(e, toks[1], "start");
      f.duration = parse_nonneg_duration(e, toks[2], "duration");
      spec.faults.devices.push_back(f);
      record(PlanEntry::List::kDevices, e);
    } else if (e.key == "restart") {
      faults::GuardRestart f;
      f.at = parse_nonneg_duration(e, one_token(e), "at_s");
      spec.faults.restarts.push_back(f);
      record(PlanEntry::List::kRestarts, e);
    } else if (e.key == "may_break_connections") {
      once(e);
      spec.faults.may_break_connections = parse_bool(e, one_token(e));
    } else {
      fail(e, "unknown key in [faults]");
    }
  }

  void decode_population(const ScnEntry& e) {
    once(e);
    if (e.key == "homes") {
      const auto v = parse_u64(e, one_token(e), "homes");
      if (v < 1 || v > 1000000) fail(e, "homes must be in [1, 1000000]");
      spec.population.homes = v;
    } else if (e.key == "command_jitter_s") {
      const double v = parse_double(e, one_token(e), "command_jitter_s");
      if (v < 0.0 || v > 10.0) {
        fail(e, "command_jitter_s must be in [0, 10]");
      }
      spec.population.command_jitter_s = v;
    } else if (e.key == "attack_flip") {
      spec.population.attack_flip = parse_prob(e, one_token(e), "attack_flip");
    } else {
      fail(e, "unknown key in [population]");
    }
  }

  void decode_fleet_faults(const ScnEntry& e) {
    fleet::FleetFaultPlan& p = spec.fleet_faults;
    if (e.key == "regions") {
      once(e);
      const auto v = parse_u64(e, one_token(e), "regions");
      if (v < 1 || v > fleet::kMaxRegions) {
        fail(e, "regions must be in [1, " +
                    std::to_string(fleet::kMaxRegions) + "]");
      }
      p.regions = static_cast<std::uint32_t>(v);
      record(PlanEntry::List::kRegions, e);
    } else if (e.key == "fcm_outage") {
      const auto toks = scn_tokens(e.value);
      need_tokens(e, toks, 3, "<region> <start_s> <dur_s> [delay_s=X] [drop=P]");
      fleet::RegionalFcmOutage o;
      o.region = static_cast<std::uint32_t>(parse_u64(e, toks[0], "region"));
      o.start = parse_nonneg_duration(e, toks[1], "start");
      o.duration = parse_nonneg_duration(e, toks[2], "duration");
      for (std::size_t i = 3; i < toks.size(); ++i) {
        const auto kv = named_arg(toks[i]);
        if (!kv) fail(e, "expected name=value argument, got '" + toks[i] + "'");
        if (kv->first == "delay_s") {
          o.extra_delay = parse_nonneg_duration(e, kv->second, "delay_s");
        } else if (kv->first == "drop") {
          o.drop_prob = parse_prob(e, kv->second, "drop");
        } else {
          fail(e, "unknown argument '" + kv->first + "'");
        }
      }
      p.fcm_outages.push_back(o);
      record(PlanEntry::List::kFcmOutages, e);
    } else if (e.key == "cloud_capacity") {
      const auto toks = scn_tokens(e.value);
      need_tokens(e, toks, 3,
                  "<start_s> <dur_s> <rst|norst> [fraction=F] [spread_s=S] "
                  "[extra_ms=X]");
      fleet::CloudCapacityEvent ev;
      ev.start = parse_nonneg_duration(e, toks[0], "start");
      ev.duration = parse_nonneg_duration(e, toks[1], "duration");
      if (toks[2] == "rst") {
        ev.rst_existing = true;
      } else if (toks[2] == "norst") {
        ev.rst_existing = false;
      } else {
        fail(e, "expected rst or norst, got '" + toks[2] + "'");
      }
      for (std::size_t i = 3; i < toks.size(); ++i) {
        const auto kv = named_arg(toks[i]);
        if (!kv) fail(e, "expected name=value argument, got '" + toks[i] + "'");
        if (kv->first == "fraction") {
          ev.fraction = parse_prob(e, kv->second, "fraction");
          if (ev.fraction == 0.0) fail(e, "fraction must be in (0, 1]");
        } else if (kv->first == "spread_s") {
          ev.recovery_spread = parse_nonneg_duration(e, kv->second, "spread_s");
        } else if (kv->first == "extra_ms") {
          ev.extra_latency = parse_extra_ms(e, kv->second);
        } else {
          fail(e, "unknown argument '" + kv->first + "'");
        }
      }
      p.cloud_capacity.push_back(ev);
      record(PlanEntry::List::kCloudCapacity, e);
    } else if (e.key == "wan_degrade") {
      const auto toks = scn_tokens(e.value);
      need_tokens(e, toks, 3, "<region> <start_s> <dur_s> [extra_ms=X]");
      fleet::WanDegradeWindow w;
      w.region = static_cast<std::uint32_t>(parse_u64(e, toks[0], "region"));
      w.start = parse_nonneg_duration(e, toks[1], "start");
      w.duration = parse_nonneg_duration(e, toks[2], "duration");
      for (std::size_t i = 3; i < toks.size(); ++i) {
        const auto kv = named_arg(toks[i]);
        if (!kv) fail(e, "expected name=value argument, got '" + toks[i] + "'");
        if (kv->first == "extra_ms") {
          w.extra_latency = parse_extra_ms(e, kv->second);
        } else {
          fail(e, "unknown argument '" + kv->first + "'");
        }
      }
      p.wan_degrades.push_back(w);
      record(PlanEntry::List::kWanDegrades, e);
    } else if (e.key == "restart_wave") {
      const auto toks = scn_tokens(e.value);
      need_tokens(e, toks, 2, "<start_s> <stagger_s> [fraction=F]");
      fleet::GuardRestartWave w;
      w.start = parse_nonneg_duration(e, toks[0], "start");
      w.stagger = parse_nonneg_duration(e, toks[1], "stagger");
      for (std::size_t i = 2; i < toks.size(); ++i) {
        const auto kv = named_arg(toks[i]);
        if (!kv) fail(e, "expected name=value argument, got '" + toks[i] + "'");
        if (kv->first == "fraction") {
          w.fraction = parse_prob(e, kv->second, "fraction");
          if (w.fraction == 0.0) fail(e, "fraction must be in (0, 1]");
        } else {
          fail(e, "unknown argument '" + kv->first + "'");
        }
      }
      p.restart_waves.push_back(w);
      record(PlanEntry::List::kRestartWaves, e);
    } else if (e.key == "reconnect_backoff") {
      once(e);
      const auto toks = scn_tokens(e.value);
      need_tokens(e, toks, 1, "<factor> [cap_s=S] [budget=N]");
      p.resilience.reconnect_backoff = parse_double(e, toks[0], "factor");
      if (p.resilience.reconnect_backoff < 1.0 ||
          p.resilience.reconnect_backoff > 8.0) {
        fail(e, "backoff factor must be in [1, 8]");
      }
      for (std::size_t i = 1; i < toks.size(); ++i) {
        const auto kv = named_arg(toks[i]);
        if (!kv) fail(e, "expected name=value argument, got '" + toks[i] + "'");
        if (kv->first == "cap_s") {
          p.resilience.reconnect_backoff_cap =
              parse_nonneg_duration(e, kv->second, "cap_s");
          if (p.resilience.reconnect_backoff_cap.ns() == 0) {
            fail(e, "cap_s must be > 0");
          }
        } else if (kv->first == "budget") {
          const auto v = parse_u64(e, kv->second, "budget");
          if (v > 64) fail(e, "budget must be <= 64");
          p.resilience.reconnect_budget = static_cast<int>(v);
        } else {
          fail(e, "unknown argument '" + kv->first + "'");
        }
      }
    } else if (e.key == "fcm_retry_jitter") {
      once(e);
      const double v = parse_prob(e, one_token(e), "fcm_retry_jitter");
      if (v >= 1.0) {
        fail(e, "fcm_retry_jitter must be in [0, 1) (1 would shave retry "
                "waits to zero)");
      }
      p.resilience.fcm_retry_jitter = v;
    } else if (e.key == "fcm_retry_budget") {
      once(e);
      const auto v = parse_u64(e, one_token(e), "fcm_retry_budget");
      if (v > 100000) fail(e, "fcm_retry_budget must be <= 100000");
      p.resilience.fcm_retry_budget = static_cast<int>(v);
    } else {
      fail(e, "unknown key in [fleet_faults]");
    }
  }

  void decode_capture(const ScnEntry& e) {
    if (e.key == "expect") {
      spec.expected.push_back(decode_expect(e));
    } else {
      spec.capture.push_back(decode_capture_op(e));
      capture_entries.push_back(&e);
    }
  }

  // --- validation -----------------------------------------------------------

  void forbid_section(const std::string& section, const std::string& why) {
    const auto it = first_in_section.find(section);
    if (it != first_in_section.end()) {
      fail(*it->second, "[" + section + "] is not allowed " + why);
    }
  }

  void validate() {
    if (spec.name.empty()) {
      throw ScnError{1, "[scenario] name: missing (every scenario is named)"};
    }
    spec.faults.name = spec.name;
    spec.fleet_faults.name = spec.name;

    switch (spec.kind) {
      case Kind::kHome: validate_home(); break;
      case Kind::kChain: validate_chain(); break;
      case Kind::kSynthetic: validate_synthetic(); break;
    }
  }

  void validate_home() {
    forbid_section("chain", "for kind home");
    forbid_section("capture", "for kind home");
    const bool scripted = !spec.schedule.commands.empty();
    if (scripted && has_loop_keys) {
      fail(loop_entry != nullptr ? *loop_entry : *first_command,
           "scripted command lines and capture-loop keys are mutually "
           "exclusive");
    }
    if (!scripted && spec.schedule.loop_commands == 0) {
      throw ScnError{kind_line,
                     "[schedule]: kind home needs either scripted 'command' "
                     "lines or a capture loop ('commands = N')"};
    }
    if (scripted) {
      const sim::Duration last = spec.schedule.commands.back().at;
      if (spec.schedule.drain < last + sim::seconds(30)) {
        fail(drain_entry != nullptr ? *drain_entry : *first_command,
             "drain_s must be at least 30 s past the last command offset "
             "(holds, retransmits and reconnects need time to settle)");
      }
    } else {
      forbid_section("faults", "for capture-loop scenarios");
      forbid_section("guard", "for capture-loop scenarios (captures always "
                              "run the guard in monitor mode)");
      forbid_section("population", "for capture-loop scenarios (populations "
                                   "need a scripted schedule to jitter)");
      forbid_section("fleet_faults", "for capture-loop scenarios (fleet "
                                     "events are population-scoped)");
    }
    if (first_in_section.count("population") != 0 &&
        spec.population.homes == 0) {
      fail(*first_in_section.at("population"),
           "[population] needs 'homes = N'");
    }
    if (const auto d = faults::check_plan(spec.faults, spec.home.owners)) {
      fail_at(*d);
    }
    validate_fleet_faults();
  }

  void validate_chain() {
    forbid_section("home", "for kind chain");
    forbid_section("guard", "for kind chain (the chain guard is always "
                            "monitor mode)");
    forbid_section("faults", "for kind chain (no injector targets exist)");
    forbid_section("capture", "for kind chain");
    forbid_section("population", "for kind chain");
    forbid_section("fleet_faults", "for kind chain");
    if (first_command != nullptr) {
      fail(*first_command, "kind chain uses a capture loop, not scripted "
                           "commands");
    }
    if (spec.schedule.loop_commands == 0) {
      throw ScnError{kind_line,
                     "[schedule]: kind chain needs 'commands = N'"};
    }
    if (spec.chain.misc_connection_mean &&
        spec.speaker != Speaker::kEchoDot) {
      fail(*first_in_section.at("chain"),
           "misc_connection_s only applies to speaker echo_dot");
    }
    if (spec.chain.quic_probability &&
        spec.speaker != Speaker::kGoogleHomeMini) {
      fail(*first_in_section.at("chain"),
           "quic_probability only applies to speaker home_mini");
    }
  }

  void validate_synthetic() {
    forbid_section("home", "for kind synthetic");
    forbid_section("guard", "for kind synthetic");
    forbid_section("schedule", "for kind synthetic");
    forbid_section("chain", "for kind synthetic");
    forbid_section("faults", "for kind synthetic");
    forbid_section("population", "for kind synthetic");
    forbid_section("fleet_faults", "for kind synthetic");
    if (spec.capture.empty()) {
      throw ScnError{kind_line,
                     "[capture]: kind synthetic needs at least one capture op"};
    }
    int flows = 0;
    std::int64_t timeline_ms = 0;
    const auto sig_len = static_cast<std::int64_t>(
        guard::GuardBox::avs_signature().size());
    for (std::size_t i = 0; i < spec.capture.size(); ++i) {
      const CaptureOp& op = spec.capture[i];
      const ScnEntry& e = *capture_entries[i];
      std::int64_t end_ms = op.at_ms;
      switch (op.kind) {
        case CaptureOp::Kind::kDns:
          break;
        case CaptureOp::Kind::kFlow:
          ++flows;
          break;
        case CaptureOp::Kind::kSignature:
          end_ms += 10 * (sig_len - 1);
          break;
        case CaptureOp::Kind::kSpike:
          if (op.lens.empty() || op.lens.size() > 16) {
            fail(e, "a spike needs 1..16 record lengths");
          }
          end_ms += 10 * (static_cast<std::int64_t>(op.lens.size()) - 1);
          break;
        case CaptureOp::Kind::kTls:
        case CaptureOp::Kind::kDatagram:
          if (op.len == 0 || op.len > 1 << 20) {
            fail(e, "record length must be in [1, 1048576]");
          }
          break;
      }
      check_trace_time(e, end_ms);
      const bool flow_scoped = op.kind != CaptureOp::Kind::kDns &&
                               op.kind != CaptureOp::Kind::kFlow;
      if (flow_scoped && op.flow >= flows) {
        fail(e, "flow " + std::to_string(op.flow) + " is not defined yet (" +
                    std::to_string(flows) + " flow ops so far)");
      }
      for (const std::uint32_t len : op.lens) {
        if (len == 0 || len > 1 << 20) {
          fail(e, "record length must be in [1, 1048576]");
        }
      }
      if (op.at_ms < timeline_ms) {
        fail(e, "at_ms " + std::to_string(op.at_ms) +
                    " runs backwards (the previous op ends at " +
                    std::to_string(timeline_ms) + " ms; traces are "
                    "chronological)");
      }
      timeline_ms = end_ms;
    }
    for (const ExpectedSpike& sp : spec.expected) {
      if (sp.flow_id > static_cast<std::uint64_t>(flows)) {
        throw ScnError{kind_line, "[capture] expect: flow_id " +
                                      std::to_string(sp.flow_id) +
                                      " exceeds the " + std::to_string(flows) +
                                      " declared flows"};
      }
    }
  }

  void validate_fleet_faults() {
    const auto it = first_in_section.find("fleet_faults");
    if (it == first_in_section.end()) return;
    if (!spec.population.enabled()) {
      fail(*it->second, "[fleet_faults] needs a [population] (fleet events "
                        "are population-scoped)");
    }
    if (const auto d = faults::check_plan(spec.fleet_faults,
                                          spec.population.homes, spec.faults)) {
      fail_at(*d);
    }
  }
};

}  // namespace

ScenarioSpec ScenarioLoader::load(std::string_view text) {
  const std::vector<ScnEntry> entries = parse_scn(text);
  Decoder d;
  for (const ScnEntry& e : entries) d.decode(e);
  d.validate();
  return std::move(d.spec);
}

ScenarioSpec ScenarioLoader::load_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw std::runtime_error{path + ": cannot open scenario file"};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    return load(ss.str());
  } catch (const ScnError& e) {
    throw ScnError::prefixed(path, e);
  }
}

}  // namespace vg::scenario
