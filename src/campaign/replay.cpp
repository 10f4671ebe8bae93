#include "campaign/replay.h"

#include <charconv>
#include <sstream>

#include "ad/safety/degradation.h"
#include "support/io.h"

namespace certkit::campaign {

namespace {

using support::JsonEscape;
using support::JsonNumber;
using support::JsonValue;

// --- typed field extraction ----------------------------------------------
// Every getter fails loudly with the field name: a replay artifact that
// does not parse back exactly is a finding about the serializer, not
// something to limp past.

bool FailField(const std::string& key, const char* what, std::string* error) {
  *error = "field '" + key + "': " + what;
  return false;
}

using support::JsonGetBool;
using support::JsonGetDouble;
using support::JsonGetI64;
using support::JsonGetInt;
using support::JsonGetString;
using support::JsonGetU64;

bool GetHexU64(const JsonValue& obj, const std::string& key,
               std::uint64_t* out, std::string* error) {
  std::string hex;
  if (!JsonGetString(obj, key, &hex, error)) return false;
  if (!ParseHexU64(hex, out)) {
    return FailField(key, "not a 16-digit hex digest", error);
  }
  return true;
}

bool SafetyStateFromName(std::string_view name, adpilot::SafetyState* out) {
  for (const adpilot::SafetyState s :
       {adpilot::SafetyState::kNominal, adpilot::SafetyState::kLimpHome,
        adpilot::SafetyState::kSafeStop}) {
    if (name == adpilot::SafetyStateName(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

std::string TickSignatureJson(const adpilot::TickSignature& sig) {
  std::ostringstream out;
  out << "{\"tick\":" << sig.tick << ",\"frame\":" << JsonEscape(HexU64(
             sig.frame))
      << ",\"detections\":" << JsonEscape(HexU64(sig.detections))
      << ",\"tracked\":" << JsonEscape(HexU64(sig.tracked))
      << ",\"command\":" << JsonEscape(HexU64(sig.command))
      << ",\"state\":" << JsonEscape(HexU64(sig.state))
      << ",\"faults_injected\":" << sig.faults_injected << "}";
  return out.str();
}

bool ParseTickSignature(const JsonValue& v, adpilot::TickSignature* out,
                        std::string* error) {
  if (v.kind != JsonValue::Kind::kObject) {
    *error = "tick signature is not an object";
    return false;
  }
  return JsonGetI64(v, "tick", &out->tick, error) &&
         GetHexU64(v, "frame", &out->frame, error) &&
         GetHexU64(v, "detections", &out->detections, error) &&
         GetHexU64(v, "tracked", &out->tracked, error) &&
         GetHexU64(v, "command", &out->command, error) &&
         GetHexU64(v, "state", &out->state, error) &&
         JsonGetI64(v, "faults_injected", &out->faults_injected, error);
}

std::string DivergenceJson(const ReplayDivergence& d) {
  std::ostringstream out;
  out << "{\"diverged\":" << (d.diverged ? "true" : "false");
  if (d.diverged) {
    out << ",\"tick\":" << d.tick << ",\"stream\":" << JsonEscape(d.stream);
  }
  out << "}";
  return out.str();
}

}  // namespace

std::string HexU64(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

bool ParseHexU64(std::string_view s, std::uint64_t* out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

std::string ReplayArtifactJson(const ReplayArtifact& artifact) {
  std::ostringstream out;
  out << "{\"schema\":" << artifact.schema
      << ",\"candidate\":" << CandidateJson(artifact.candidate)
      << ",\"verdict\":" << VerdictJson(artifact.verdict)
      << ",\"outcome\":" << JsonEscape(artifact.outcome)
      << ",\"report_digest\":" << JsonEscape(HexU64(artifact.report_digest))
      << ",\"ticks\":[";
  for (std::size_t i = 0; i < artifact.ticks.size(); ++i) {
    if (i > 0) out << ",";
    out << TickSignatureJson(artifact.ticks[i]);
  }
  out << "]}";
  return out.str();
}

bool ParseScenarioConfig(const JsonValue& v, adpilot::ScenarioConfig* out,
                         std::string* error) {
  if (v.kind != JsonValue::Kind::kObject) {
    *error = "scenario is not an object";
    return false;
  }
  return JsonGetInt(v, "num_vehicles", &out->num_vehicles, error) &&
         JsonGetInt(v, "num_pedestrians", &out->num_pedestrians, error) &&
         JsonGetDouble(v, "road_length", &out->road_length, error) &&
         JsonGetDouble(v, "lane_width", &out->lane_width, error) &&
         JsonGetInt(v, "num_lanes", &out->num_lanes, error) &&
         JsonGetDouble(v, "vehicle_speed_min", &out->vehicle_speed_min,
                       error) &&
         JsonGetDouble(v, "vehicle_speed_max", &out->vehicle_speed_max,
                       error) &&
         JsonGetU64(v, "seed", &out->seed, error);
}

bool ParseFaultSpec(const JsonValue& v, adpilot::FaultSpec* out,
                    std::string* error) {
  if (v.kind != JsonValue::Kind::kObject) {
    *error = "fault is not an object";
    return false;
  }
  std::string kind;
  if (!JsonGetString(v, "kind", &kind, error)) return false;
  if (!adpilot::FaultKindFromName(kind, &out->kind)) {
    return FailField("kind", "unknown fault kind", error);
  }
  return JsonGetI64(v, "onset", &out->onset_tick, error) &&
         JsonGetI64(v, "duration", &out->duration_ticks, error) &&
         JsonGetDouble(v, "magnitude", &out->magnitude, error);
}

bool ParseCandidate(const JsonValue& v, Candidate* out, std::string* error) {
  if (v.kind != JsonValue::Kind::kObject) {
    *error = "candidate is not an object";
    return false;
  }
  if (!JsonGetI64(v, "id", &out->id, error) ||
      !JsonGetI64(v, "parent", &out->parent_id, error) ||
      !JsonGetInt(v, "generation", &out->generation, error)) {
    return false;
  }
  const JsonValue* scenario = v.Find("scenario");
  if (scenario == nullptr) return FailField("scenario", "missing", error);
  if (!ParseScenarioConfig(*scenario, &out->scenario, error)) return false;
  std::string backend;
  if (!JsonGetString(v, "backend", &backend, error)) return false;
  if (!BackendFromTag(backend, &out->backend)) {
    return FailField("backend", "unknown backend tag", error);
  }
  if (!JsonGetBool(v, "quantized", &out->quantized, error)) return false;
  const JsonValue* input = v.Find("detector_input");
  if (input == nullptr || input->kind != JsonValue::Kind::kArray ||
      input->items.size() != 2 ||
      input->items[0].kind != JsonValue::Kind::kNumber ||
      input->items[1].kind != JsonValue::Kind::kNumber) {
    return FailField("detector_input", "not a [h,w] pair", error);
  }
  out->detector_input_h = static_cast<int>(input->items[0].number);
  out->detector_input_w = static_cast<int>(input->items[1].number);
  if (!JsonGetInt(v, "ticks", &out->ticks, error) ||
      !JsonGetU64(v, "fault_seed", &out->fault_seed, error)) {
    return false;
  }
  const JsonValue* faults = v.Find("faults");
  if (faults == nullptr || faults->kind != JsonValue::Kind::kArray) {
    return FailField("faults", "missing or not an array", error);
  }
  out->faults.clear();
  out->faults.reserve(faults->items.size());
  for (const JsonValue& f : faults->items) {
    adpilot::FaultSpec spec;
    if (!ParseFaultSpec(f, &spec, error)) return false;
    out->faults.push_back(spec);
  }
  return true;
}

bool ParseVerdict(const JsonValue& v, OracleVerdict* out,
                  std::string* error) {
  if (v.kind != JsonValue::Kind::kObject) {
    *error = "verdict is not an object";
    return false;
  }
  std::string state;
  if (!JsonGetString(v, "final_state", &state, error)) return false;
  if (!SafetyStateFromName(state, &out->final_state)) {
    return FailField("final_state", "unknown safety state", error);
  }
  if (!JsonGetI64(v, "violations", &out->safety.total, error) ||
      !JsonGetI64(v, "warnings", &out->safety.warnings, error) ||
      !JsonGetI64(v, "criticals", &out->safety.criticals, error) ||
      !JsonGetI64(v, "handled", &out->safety.handled, error)) {
    return false;
  }
  const JsonValue* monitors = v.Find("by_monitor");
  if (monitors == nullptr || monitors->kind != JsonValue::Kind::kObject) {
    return FailField("by_monitor", "missing or not an object", error);
  }
  for (int m = 0; m < adpilot::kNumMonitors; ++m) {
    const char* name = adpilot::MonitorName(static_cast<adpilot::MonitorId>(m));
    if (!JsonGetI64(*monitors, name, &out->safety.by_monitor[m], error)) {
      return false;
    }
  }
  return JsonGetBool(v, "collision", &out->collision, error) &&
         JsonGetBool(v, "non_finite_command", &out->non_finite_command,
                     error) &&
         JsonGetBool(v, "reached_goal", &out->reached_goal, error) &&
         JsonGetI64(v, "command_overrides", &out->command_overrides, error) &&
         JsonGetI64(v, "ticks", &out->ticks, error);
}

bool ParseReplayArtifact(std::string_view json, ReplayArtifact* out,
                         std::string* error) {
  JsonValue root;
  if (!support::ParseJson(json, &root, error)) return false;
  if (root.kind != JsonValue::Kind::kObject) {
    *error = "artifact is not an object";
    return false;
  }
  if (!JsonGetInt(root, "schema", &out->schema, error)) return false;
  if (out->schema != kReplayArtifactSchema) {
    *error = "unsupported artifact schema " + std::to_string(out->schema);
    return false;
  }
  const JsonValue* candidate = root.Find("candidate");
  if (candidate == nullptr) return FailField("candidate", "missing", error);
  if (!ParseCandidate(*candidate, &out->candidate, error)) return false;
  const JsonValue* verdict = root.Find("verdict");
  if (verdict == nullptr) return FailField("verdict", "missing", error);
  if (!ParseVerdict(*verdict, &out->verdict, error)) return false;
  if (!JsonGetString(root, "outcome", &out->outcome, error) ||
      !GetHexU64(root, "report_digest", &out->report_digest, error)) {
    return false;
  }
  const JsonValue* ticks = root.Find("ticks");
  if (ticks == nullptr || ticks->kind != JsonValue::Kind::kArray) {
    return FailField("ticks", "missing or not an array", error);
  }
  out->ticks.clear();
  out->ticks.reserve(ticks->items.size());
  for (const JsonValue& t : ticks->items) {
    adpilot::TickSignature sig;
    if (!ParseTickSignature(t, &sig, error)) return false;
    out->ticks.push_back(sig);
  }
  return true;
}

ReplayArtifact MakeArtifact(const Candidate& candidate,
                            const EvalResult& eval) {
  ReplayArtifact artifact;
  artifact.candidate = candidate;
  artifact.verdict = eval.verdict;
  artifact.outcome = OutcomeSignature(eval.verdict);
  artifact.report_digest = eval.report_digest;
  artifact.ticks = eval.tick_signatures;
  return artifact;
}

std::string WriteFindingArtifact(const std::string& dir,
                                 const Candidate& candidate,
                                 const EvalResult& eval) {
  const std::string path =
      dir + "/finding_" + std::to_string(candidate.id) + ".json";
  const support::Status status =
      support::WriteFile(path, ReplayArtifactJson(MakeArtifact(candidate,
                                                               eval)) + "\n");
  return status.ok() ? path : std::string();
}

ReplayDivergence DiffSignatures(const std::vector<adpilot::TickSignature>& a,
                                const std::vector<adpilot::TickSignature>& b) {
  ReplayDivergence d;
  const std::size_t common = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < common; ++i) {
    // Dataflow order: report the most upstream divergent stream, because
    // everything after it diverges as a consequence.
    const char* stream = nullptr;
    if (a[i].frame != b[i].frame) {
      stream = "frame";
    } else if (a[i].detections != b[i].detections) {
      stream = "detections";
    } else if (a[i].tracked != b[i].tracked) {
      stream = "tracked";
    } else if (a[i].command != b[i].command) {
      stream = "command";
    } else if (a[i].state != b[i].state) {
      stream = "state";
    } else if (a[i].faults_injected != b[i].faults_injected) {
      stream = "faults";
    }
    if (stream != nullptr) {
      d.diverged = true;
      d.tick = a[i].tick;
      d.stream = stream;
      return d;
    }
  }
  if (a.size() != b.size()) {
    d.diverged = true;
    d.tick = static_cast<std::int64_t>(common);
    d.stream = "length";
  }
  return d;
}

ReplayOutcome ExecuteReplay(const ReplayArtifact& artifact) {
  ReplayOutcome out;
  out.eval = CampaignRunner::Evaluate(artifact.candidate);
  out.report_digest = out.eval.report_digest;
  out.digest_matches = out.report_digest == artifact.report_digest;
  out.verdict_matches =
      OutcomeSignature(out.eval.verdict) == artifact.outcome;
  out.divergence = DiffSignatures(artifact.ticks, out.eval.tick_signatures);
  return out;
}

std::vector<VariantSpec> DifferentialVariants(const Candidate& reference) {
  std::vector<VariantSpec> variants;
  for (const nn::Backend b : {nn::Backend::kClosedSim, nn::Backend::kOpenSim,
                              nn::Backend::kCpuNaive}) {
    if (b == reference.backend) continue;
    VariantSpec spec;
    spec.name = std::string("backend:") + BackendTag(b);
    spec.backend = b;
    spec.quantized = reference.quantized;
    variants.push_back(spec);
  }
  // Quantized-vs-fp32 on the reference's own backend. When the reference is
  // itself quantized the fp32 arm is the diff point, and vice versa.
  VariantSpec quant;
  quant.name = reference.quantized ? "fp32" : "quantized";
  quant.backend = reference.backend;
  quant.quantized = !reference.quantized;
  variants.push_back(quant);
  return variants;
}

Candidate ApplyVariant(const Candidate& reference, const VariantSpec& spec) {
  Candidate variant = reference;
  variant.backend = spec.backend;
  variant.quantized = spec.quantized;
  return variant;
}

DifferentialReport RunDifferential(const Candidate& candidate) {
  DifferentialReport report;
  const EvalResult reference = CampaignRunner::Evaluate(candidate);
  report.reference_digest = reference.report_digest;
  report.reference_outcome = OutcomeSignature(reference.verdict);
  for (const VariantSpec& spec : DifferentialVariants(candidate)) {
    DifferentialArm arm;
    arm.spec = spec;
    const EvalResult eval =
        CampaignRunner::Evaluate(ApplyVariant(candidate, spec));
    arm.report_digest = eval.report_digest;
    arm.divergence =
        DiffSignatures(reference.tick_signatures, eval.tick_signatures);
    arm.outcome_matches =
        OutcomeSignature(eval.verdict) == report.reference_outcome;
    if (arm.divergence.diverged || !arm.outcome_matches) ++report.divergent;
    report.arms.push_back(std::move(arm));
  }
  return report;
}

std::string DifferentialReportJson(const DifferentialReport& report) {
  std::ostringstream out;
  out << "{\"reference\":{\"digest\":"
      << JsonEscape(HexU64(report.reference_digest))
      << ",\"outcome\":" << JsonEscape(report.reference_outcome)
      << "},\"arms\":[";
  for (std::size_t i = 0; i < report.arms.size(); ++i) {
    const DifferentialArm& arm = report.arms[i];
    if (i > 0) out << ",";
    out << "{\"variant\":" << JsonEscape(arm.spec.name)
        << ",\"digest\":" << JsonEscape(HexU64(arm.report_digest))
        << ",\"divergence\":" << DivergenceJson(arm.divergence)
        << ",\"outcome_matches\":"
        << (arm.outcome_matches ? "true" : "false") << "}";
  }
  out << "],\"divergent\":" << report.divergent << "}";
  return out.str();
}

bool VariantDiverges(const Candidate& candidate, const VariantSpec& spec) {
  const EvalResult reference = CampaignRunner::Evaluate(candidate);
  const EvalResult variant =
      CampaignRunner::Evaluate(ApplyVariant(candidate, spec));
  return DiffSignatures(reference.tick_signatures, variant.tick_signatures)
             .diverged ||
         OutcomeSignature(reference.verdict) !=
             OutcomeSignature(variant.verdict);
}

}  // namespace certkit::campaign
