#include "data/kpi.hpp"

#include <cassert>
#include <cstdio>

#include "common/rng.hpp"

namespace leaf::data {

std::string to_string(KpiGroup g) {
  switch (g) {
    case KpiGroup::kResourceUtilization: return "resource_utilization";
    case KpiGroup::kNetworkPerformance: return "network_performance";
    case KpiGroup::kUserExperience: return "user_experience";
  }
  return "?";
}

std::string to_string(TargetKpi t) {
  switch (t) {
    case TargetKpi::kDVol: return "DVol";
    case TargetKpi::kPU: return "PU";
    case TargetKpi::kDTP: return "DTP";
    case TargetKpi::kREst: return "REst";
    case TargetKpi::kCDR: return "CDR";
    case TargetKpi::kGDR: return "GDR";
  }
  return "?";
}

std::string kpi_name(TargetKpi t) {
  switch (t) {
    case TargetKpi::kDVol: return "pdcp_dl_datavol_mb";
    case TargetKpi::kPU: return "peak_active_ues";
    case TargetKpi::kDTP: return "dl_throughput_mbps";
    case TargetKpi::kREst: return "rrc_estab_success";
    case TargetKpi::kCDR: return "s1u_call_drop_rate";
    case TargetKpi::kGDR: return "rtp_gap_duration_ratio";
  }
  return "?";
}

bool parse_target(const std::string& short_name, TargetKpi& out) {
  for (TargetKpi t : kAllTargets) {
    if (to_string(t) == short_name) {
      out = t;
      return true;
    }
  }
  return false;
}

namespace {

KpiGroup group_of_target(TargetKpi t) {
  switch (t) {
    case TargetKpi::kDVol:
    case TargetKpi::kPU:
      return KpiGroup::kResourceUtilization;
    case TargetKpi::kDTP:
    case TargetKpi::kREst:
      return KpiGroup::kNetworkPerformance;
    case TargetKpi::kCDR:
    case TargetKpi::kGDR:
      return KpiGroup::kUserExperience;
  }
  return KpiGroup::kResourceUtilization;
}

LatentAnchor anchor_of_target(TargetKpi t) {
  switch (t) {
    case TargetKpi::kDVol: return LatentAnchor::kDVol;
    case TargetKpi::kPU: return LatentAnchor::kPU;
    case TargetKpi::kDTP: return LatentAnchor::kDTP;
    case TargetKpi::kREst: return LatentAnchor::kREst;
    case TargetKpi::kCDR: return LatentAnchor::kCDR;
    case TargetKpi::kGDR: return LatentAnchor::kGDR;
  }
  return LatentAnchor::kNone;
}

// Name stems for generated companion KPIs, per anchor.  Real operator KPI
// catalogues look like this: a base quantity with direction / layer /
// aggregation suffixes.
const char* stem_of(LatentAnchor a) {
  switch (a) {
    case LatentAnchor::kDVol: return "dl_traffic";
    case LatentAnchor::kPU: return "active_ue";
    case LatentAnchor::kDTP: return "throughput";
    case LatentAnchor::kREst: return "rrc_conn";
    case LatentAnchor::kCDR: return "drop_evt";
    case LatentAnchor::kGDR: return "rtp_media";
    case LatentAnchor::kCoverage: return "coverage";
    case LatentAnchor::kMobility: return "handover";
    case LatentAnchor::kNone: return "aux";
  }
  return "aux";
}

const char* const kSuffixes[] = {"avg",  "max",   "p95",  "sum",  "ul",
                                 "dl",   "rate",  "cnt",  "time", "ratio",
                                 "prb",  "qci1",  "qci9", "erab", "pct"};

KpiGroup group_of_anchor(LatentAnchor a) {
  switch (a) {
    case LatentAnchor::kDVol:
    case LatentAnchor::kPU:
      return KpiGroup::kResourceUtilization;
    case LatentAnchor::kDTP:
    case LatentAnchor::kREst:
    case LatentAnchor::kCoverage:
    case LatentAnchor::kMobility:
      return KpiGroup::kNetworkPerformance;
    case LatentAnchor::kCDR:
    case LatentAnchor::kGDR:
      return KpiGroup::kUserExperience;
    case LatentAnchor::kNone:
      return KpiGroup::kResourceUtilization;
  }
  return KpiGroup::kResourceUtilization;
}

}  // namespace

KpiSchema KpiSchema::build(int num_kpis, std::uint64_t seed) {
  assert(num_kpis >= 9);
  KpiSchema schema;
  Rng rng(seed);

  auto add = [&](KpiSpec s) { schema.specs_.push_back(std::move(s)); };

  // 1) The six forecast targets, always first, in TargetKpi order.
  for (TargetKpi t : kAllTargets) {
    KpiSpec s;
    s.name = kpi_name(t);
    s.group = group_of_target(t);
    s.anchor = anchor_of_target(t);
    s.exponent = 1.0;
    s.scale = 1.0;
    s.noise_sigma = 0.0;  // targets are the latent values themselves
    s.is_target = true;
    s.target = t;
    schema.target_columns_[static_cast<std::size_t>(t)] =
        static_cast<int>(schema.specs_.size());
    add(std::move(s));
  }

  // 2) The named case-study anchors (§5): the coverage representative and
  //    the voice-gap representative.
  {
    KpiSpec cov;
    cov.name = "badcoveragemeasurements";
    cov.group = KpiGroup::kNetworkPerformance;
    cov.anchor = LatentAnchor::kCoverage;
    cov.exponent = 1.0;
    cov.scale = 1.0;
    cov.noise_sigma = 0.08;
    add(std::move(cov));

    KpiSpec rtp;
    rtp.name = "rtp_gap_ratio_medium";
    rtp.group = KpiGroup::kUserExperience;
    rtp.anchor = LatentAnchor::kGDR;
    rtp.exponent = 0.9;
    rtp.scale = 0.6;
    rtp.noise_sigma = 0.25;
    add(std::move(rtp));

    KpiSpec mob;
    mob.name = "handover_success_cnt";
    mob.group = KpiGroup::kNetworkPerformance;
    mob.anchor = LatentAnchor::kMobility;
    mob.exponent = 1.0;
    mob.scale = 1.0;
    mob.noise_sigma = 0.12;
    add(std::move(mob));
  }

  // 3) Companion KPIs, allocated round-robin with weights matching the
  //    case study: the DVol group is by far the largest (32 of 224 in the
  //    paper), followed by the other targets, coverage, mobility, and a
  //    tail of independent noise/auxiliary KPIs.
  struct Quota {
    LatentAnchor anchor;
    double weight;
  };
  const Quota quotas[] = {
      {LatentAnchor::kDVol, 31.0},     {LatentAnchor::kPU, 20.0},
      {LatentAnchor::kDTP, 20.0},      {LatentAnchor::kREst, 22.0},
      {LatentAnchor::kCDR, 14.0},      {LatentAnchor::kGDR, 14.0},
      {LatentAnchor::kCoverage, 18.0}, {LatentAnchor::kMobility, 16.0},
      {LatentAnchor::kNone, 60.0},
  };
  double total_w = 0.0;
  for (const auto& q : quotas) total_w += q.weight;

  const int remaining = num_kpis - schema.size();
  int emitted = 0;
  // Largest-remainder allocation so group proportions track the paper's at
  // every schema size.
  std::array<int, 9> counts{};
  std::array<double, 9> frac{};
  for (std::size_t i = 0; i < 9; ++i) {
    const double exact = quotas[i].weight / total_w * remaining;
    counts[i] = static_cast<int>(exact);
    frac[i] = exact - counts[i];
    emitted += counts[i];
  }
  while (emitted < remaining) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < 9; ++i)
      if (frac[i] > frac[best]) best = i;
    ++counts[best];
    frac[best] = -1.0;
    ++emitted;
  }

  for (std::size_t qi = 0; qi < 9; ++qi) {
    const LatentAnchor a = quotas[qi].anchor;
    for (int k = 0; k < counts[qi]; ++k) {
      KpiSpec s;
      char buf[80];
      std::snprintf(buf, sizeof buf, "%s_%s_%02d", stem_of(a),
                    kSuffixes[static_cast<std::size_t>(k) % std::size(kSuffixes)],
                    k);
      s.name = buf;
      s.group = group_of_anchor(a);
      s.anchor = a;
      if (a == LatentAnchor::kNone) {
        s.exponent = 1.0;
        s.scale = rng.lognormal(0.0, 1.0);
        s.noise_sigma = rng.uniform(0.15, 0.5);
      } else {
        s.exponent = rng.uniform(0.7, 1.3);
        s.scale = rng.lognormal(0.0, 0.8);
        s.noise_sigma = rng.uniform(0.05, 0.25);
      }
      // Roughly a third of companion KPIs get redefined by software
      // upgrades; volume-mix features react to mobility changes.
      s.upgrade_sensitive = rng.bernoulli(0.35);
      s.mobility_mix_sensitive =
          (a == LatentAnchor::kDVol || a == LatentAnchor::kPU ||
           a == LatentAnchor::kMobility) &&
          rng.bernoulli(0.5);
      add(std::move(s));
    }
  }

  assert(schema.size() == num_kpis);
  return schema;
}

int KpiSchema::target_column(TargetKpi t) const {
  return target_columns_[static_cast<std::size_t>(t)];
}

int KpiSchema::column_of(const std::string& name) const {
  for (std::size_t i = 0; i < specs_.size(); ++i)
    if (specs_[i].name == name) return static_cast<int>(i);
  return -1;
}

double paper_dispersion(TargetKpi t, bool evolving) {
  // Table 2 (Evolving) and Table 6 (Fixed).
  switch (t) {
    case TargetKpi::kDVol: return evolving ? 0.81 : 0.73;
    case TargetKpi::kPU: return evolving ? 1.76 : 1.34;
    case TargetKpi::kDTP: return evolving ? 0.59 : 0.57;
    case TargetKpi::kREst: return evolving ? 0.85 : 0.77;
    case TargetKpi::kCDR: return evolving ? 1.60 : 1.35;
    case TargetKpi::kGDR: return evolving ? 8.52 : 2.12;
  }
  return 1.0;
}

}  // namespace leaf::data
