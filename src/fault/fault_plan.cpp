#include "fault/fault_plan.h"

#include <sstream>

#include "util/fnv.h"

namespace hlsrg {
namespace {

constexpr const char* kSchema = "hlsrg-fault/v1";

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

// [lo_x, lo_y, hi_x, hi_y]
JsonValue box_to_json(const Aabb& box) {
  JsonValue arr = JsonValue::array();
  arr.push_back(box.lo.x);
  arr.push_back(box.lo.y);
  arr.push_back(box.hi.x);
  arr.push_back(box.hi.y);
  return arr;
}

bool box_from_json(const JsonValue& v, Aabb* out, std::string* error) {
  if (!v.is_array() || v.items().size() != 4) {
    return fail(error, "fault box must be a 4-element [lo_x,lo_y,hi_x,hi_y]");
  }
  for (const JsonValue& c : v.items()) {
    if (!c.is_number()) return fail(error, "fault box coordinate not a number");
  }
  out->lo = {v.items()[0].as_double(), v.items()[1].as_double()};
  out->hi = {v.items()[2].as_double(), v.items()[3].as_double()};
  if (out->hi.x < out->lo.x || out->hi.y < out->lo.y) {
    return fail(error, "fault box has hi < lo");
  }
  return true;
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kRsuCrash:
      return "rsu_crash";
    case FaultKind::kLinkCut:
      return "link_cut";
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kRadioLoss:
      return "radio_loss";
    case FaultKind::kGpsNoise:
      return "gps_noise";
    case FaultKind::kChurn:
      return "churn";
  }
  return "unknown";
}

std::optional<FaultKind> fault_kind_from_name(const std::string& name) {
  for (FaultKind k :
       {FaultKind::kRsuCrash, FaultKind::kLinkCut, FaultKind::kPartition,
        FaultKind::kRadioLoss, FaultKind::kGpsNoise, FaultKind::kChurn}) {
    if (name == fault_kind_name(k)) return k;
  }
  return std::nullopt;
}

std::uint64_t FaultPlan::digest() const {
  if (empty()) return 0;
  Fnv f;
  f.mix_u64(fault_seed);
  f.mix_u64(windows.size());
  for (const FaultWindow& w : windows) {
    f.mix_u64(static_cast<std::uint64_t>(w.kind));
    f.mix_i64(w.begin.us());
    f.mix_i64(w.end.us());
    f.mix_i64(w.level);
    f.mix_i64(w.col);
    f.mix_i64(w.row);
    f.mix_i64(w.peer_level);
    f.mix_i64(w.peer_col);
    f.mix_i64(w.peer_row);
    f.mix_u64(w.has_box ? 1 : 0);
    if (w.has_box) {
      f.mix_double(w.box.lo.x);
      f.mix_double(w.box.lo.y);
      f.mix_double(w.box.hi.x);
      f.mix_double(w.box.hi.y);
    }
    f.mix_double(w.extra_loss);
    f.mix_double(w.sigma_m);
    // Mixed only for churn windows so every pre-churn plan's digest is
    // byte-identical to what it hashed to before the field existed.
    if (w.kind == FaultKind::kChurn) f.mix_double(w.depart_fraction);
  }
  const FaultProtocolOverrides& o = overrides;
  const auto mix_opt_d = [&f](const std::optional<double>& v) {
    f.mix_u64(v.has_value() ? 1 : 0);
    f.mix_double(v.value_or(0.0));
  };
  f.mix_u64(o.max_attempts.has_value() ? 1 : 0);
  f.mix_i64(o.max_attempts.value_or(0));
  mix_opt_d(o.ack_timeout_sec);
  mix_opt_d(o.retry_backoff_base);
  mix_opt_d(o.retry_backoff_cap_sec);
  mix_opt_d(o.l1_expiry_sec);
  mix_opt_d(o.l2_expiry_sec);
  mix_opt_d(o.l3_expiry_sec);
  // An all-defaults plan hashes to 0 by definition of empty(); any schedule
  // content makes the digest nonzero via this final stir.
  return f.value() == 0 ? 1 : f.value();
}

JsonValue FaultPlan::to_json() const {
  JsonValue root = JsonValue::object();
  root.set("schema", kSchema);
  if (fault_seed != 0) root.set("fault_seed", fault_seed);
  if (overrides.any()) {
    JsonValue o = JsonValue::object();
    if (overrides.max_attempts) o.set("max_attempts", *overrides.max_attempts);
    if (overrides.ack_timeout_sec) {
      o.set("ack_timeout_sec", *overrides.ack_timeout_sec);
    }
    if (overrides.retry_backoff_base) {
      o.set("retry_backoff_base", *overrides.retry_backoff_base);
    }
    if (overrides.retry_backoff_cap_sec) {
      o.set("retry_backoff_cap_sec", *overrides.retry_backoff_cap_sec);
    }
    if (overrides.l1_expiry_sec) o.set("l1_expiry_sec", *overrides.l1_expiry_sec);
    if (overrides.l2_expiry_sec) o.set("l2_expiry_sec", *overrides.l2_expiry_sec);
    if (overrides.l3_expiry_sec) o.set("l3_expiry_sec", *overrides.l3_expiry_sec);
    root.set("overrides", std::move(o));
  }
  JsonValue faults = JsonValue::array();
  for (const FaultWindow& w : windows) {
    JsonValue f = JsonValue::object();
    f.set("kind", fault_kind_name(w.kind));
    f.set("begin_sec", w.begin.sec());
    f.set("end_sec", w.open_ended() ? 0.0 : w.end.sec());
    switch (w.kind) {
      case FaultKind::kRsuCrash:
        f.set("level", w.level);
        if (w.col >= 0) {
          f.set("col", w.col);
          f.set("row", w.row);
        }
        break;
      case FaultKind::kLinkCut:
        f.set("level", w.level);
        f.set("col", w.col);
        f.set("row", w.row);
        f.set("peer_level", w.peer_level);
        f.set("peer_col", w.peer_col);
        f.set("peer_row", w.peer_row);
        break;
      case FaultKind::kPartition:
        f.set("box", box_to_json(w.box));
        break;
      case FaultKind::kRadioLoss:
        f.set("box", box_to_json(w.box));
        f.set("extra_loss", w.extra_loss);
        break;
      case FaultKind::kGpsNoise:
        if (w.has_box) f.set("box", box_to_json(w.box));
        f.set("sigma_m", w.sigma_m);
        break;
      case FaultKind::kChurn:
        if (w.has_box) f.set("box", box_to_json(w.box));
        f.set("depart_fraction", w.depart_fraction);
        break;
    }
    faults.push_back(std::move(f));
  }
  root.set("faults", std::move(faults));
  return root;
}

bool FaultPlan::from_json(const JsonValue& v, FaultPlan* out,
                          std::string* error) {
  if (!v.is_object()) return fail(error, "fault plan is not a JSON object");
  if (v.contains("schema") && v.at("schema").as_string() != kSchema) {
    return fail(error, "fault plan schema is not " + std::string(kSchema) +
                           ": " + v.at("schema").as_string());
  }
  FaultPlan plan;
  plan.fault_seed = v.at("fault_seed").as_uint64(0);
  if (v.contains("overrides")) {
    const JsonValue& o = v.at("overrides");
    if (!o.is_object()) return fail(error, "overrides is not an object");
    FaultProtocolOverrides& ov = plan.overrides;
    if (o.contains("max_attempts")) ov.max_attempts = o.at("max_attempts").as_int();
    if (o.contains("ack_timeout_sec")) {
      ov.ack_timeout_sec = o.at("ack_timeout_sec").as_double();
    }
    if (o.contains("retry_backoff_base")) {
      ov.retry_backoff_base = o.at("retry_backoff_base").as_double();
    }
    if (o.contains("retry_backoff_cap_sec")) {
      ov.retry_backoff_cap_sec = o.at("retry_backoff_cap_sec").as_double();
    }
    if (o.contains("l1_expiry_sec")) ov.l1_expiry_sec = o.at("l1_expiry_sec").as_double();
    if (o.contains("l2_expiry_sec")) ov.l2_expiry_sec = o.at("l2_expiry_sec").as_double();
    if (o.contains("l3_expiry_sec")) ov.l3_expiry_sec = o.at("l3_expiry_sec").as_double();
    if (ov.max_attempts && (*ov.max_attempts < 1 || *ov.max_attempts > 8)) {
      return fail(error, "overrides.max_attempts must be in [1, 8]");
    }
  }
  const JsonValue& faults = v.at("faults");
  if (!faults.is_null()) {
    if (!faults.is_array()) return fail(error, "faults is not an array");
    for (std::size_t i = 0; i < faults.items().size(); ++i) {
      const JsonValue& f = faults.items()[i];
      std::ostringstream at;
      at << "faults[" << i << "]";
      if (!f.is_object()) return fail(error, at.str() + " is not an object");
      const auto kind = fault_kind_from_name(f.at("kind").as_string());
      if (!kind) {
        return fail(error, at.str() + " has unknown kind \"" +
                               f.at("kind").as_string() + "\"");
      }
      FaultWindow w;
      w.kind = *kind;
      const double begin_sec = f.at("begin_sec").as_double(0.0);
      const double end_sec = f.at("end_sec").as_double(0.0);
      if (begin_sec < 0.0 || end_sec < 0.0) {
        return fail(error, at.str() + " has a negative time");
      }
      w.begin = SimTime::from_sec(begin_sec);
      w.end = SimTime::from_sec(end_sec);
      w.level = f.at("level").as_int(3);
      w.col = f.at("col").as_int(-1);
      w.row = f.at("row").as_int(-1);
      w.peer_level = f.at("peer_level").as_int(3);
      w.peer_col = f.at("peer_col").as_int(-1);
      w.peer_row = f.at("peer_row").as_int(-1);
      if ((w.kind == FaultKind::kRsuCrash || w.kind == FaultKind::kLinkCut) &&
          (w.level < 2 || w.level > 3)) {
        return fail(error, at.str() + " targets an invalid RSU level");
      }
      if (w.kind == FaultKind::kLinkCut &&
          (w.col < 0 || w.peer_col < 0)) {
        return fail(error, at.str() + " link_cut needs both endpoints");
      }
      if (f.contains("box")) {
        if (!box_from_json(f.at("box"), &w.box, error)) return false;
        w.has_box = true;
      } else if (w.kind == FaultKind::kPartition ||
                 w.kind == FaultKind::kRadioLoss) {
        return fail(error, at.str() + " requires a box");
      }
      w.extra_loss = f.at("extra_loss").as_double(0.0);
      w.sigma_m = f.at("sigma_m").as_double(0.0);
      if (w.kind == FaultKind::kRadioLoss && w.extra_loss <= 0.0) {
        return fail(error, at.str() + " radio_loss needs extra_loss > 0");
      }
      if (w.kind == FaultKind::kGpsNoise && w.sigma_m <= 0.0) {
        return fail(error, at.str() + " gps_noise needs sigma_m > 0");
      }
      w.depart_fraction = f.at("depart_fraction").as_double(0.0);
      if (w.kind == FaultKind::kChurn &&
          (w.depart_fraction <= 0.0 || w.depart_fraction > 1.0)) {
        return fail(error, at.str() + " churn needs depart_fraction in (0,1]");
      }
      plan.windows.push_back(w);
    }
  }
  *out = std::move(plan);
  return true;
}

bool FaultPlan::load(const std::string& path, FaultPlan* out,
                     std::string* error) {
  const std::optional<JsonValue> doc = read_json_file(path, error);
  if (!doc) return false;
  return from_json(*doc, out, error);
}

}  // namespace hlsrg
