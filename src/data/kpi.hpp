// KPI schema for the synthetic cellular dataset.
//
// The paper's logs carry 224 Key Performance Indicators per eNodeB per
// day, falling into three groups — resource utilization, access-network
// performance, and user experience — with six of them used as forecasting
// targets (Table 2).  Real KPIs are heavily cross-correlated ("natural
// correlations of features are often part of a dataset with a large number
// of features", §4.2): the case study finds a 32-feature group correlated
// with downlink volume, a coverage group anchored on
// `badcoveragemeasurements`, and a voice group anchored on
// `rtp_gap_ratio_medium`.
//
// This header describes that structure: which KPIs exist, which latent
// quantity each one tracks, how strongly, and with what noise.  The actual
// value synthesis lives in generator.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace leaf::data {

/// The paper's three KPI categories (Table 1).
enum class KpiGroup : std::uint8_t {
  kResourceUtilization,
  kNetworkPerformance,
  kUserExperience,
};

std::string to_string(KpiGroup g);

/// The six forecasting targets (Table 2).
enum class TargetKpi : std::uint8_t {
  kDVol,  ///< downlink data volume (pdcp_dl_datavol_mb)
  kPU,    ///< peak number of active UEs
  kDTP,   ///< downlink throughput
  kREst,  ///< RRC establishment successes
  kCDR,   ///< S1-U call drop rate
  kGDR,   ///< RTP gap duration ratio
};

inline constexpr std::array<TargetKpi, 6> kAllTargets = {
    TargetKpi::kDVol, TargetKpi::kPU,  TargetKpi::kDTP,
    TargetKpi::kREst, TargetKpi::kCDR, TargetKpi::kGDR};

/// Short display name as used in the paper's tables ("DVol", "PU", ...).
std::string to_string(TargetKpi t);
/// Raw KPI (column) name, e.g. TargetKpi::kDVol -> "pdcp_dl_datavol_mb".
std::string kpi_name(TargetKpi t);
/// Parses a short name; returns false on unknown input.
bool parse_target(const std::string& short_name, TargetKpi& out);

/// The latent quantity a synthetic KPI is coupled to.  Targets map to
/// themselves; companions couple to a target or to an auxiliary latent
/// (coverage quality, mobility); kNone marks independent noise KPIs.
enum class LatentAnchor : std::uint8_t {
  kDVol, kPU, kDTP, kREst, kCDR, kGDR,
  kCoverage,  ///< bad-coverage measurements / radio quality
  kMobility,  ///< user mobility level (handover counts etc.)
  kNone,      ///< independent series
};

/// Static description of one KPI column.
struct KpiSpec {
  std::string name;
  KpiGroup group = KpiGroup::kResourceUtilization;
  LatentAnchor anchor = LatentAnchor::kNone;
  /// Power-law exponent applied to the anchor value (mix of super- and
  /// sub-linear couplings keeps companion correlations realistic).
  double exponent = 1.0;
  /// Multiplicative scale applied after the exponent.
  double scale = 1.0;
  /// Log-normal noise sigma (observation noise of this KPI).
  double noise_sigma = 0.1;
  /// True for the six forecast targets.
  bool is_target = false;
  /// Index in TargetKpi when is_target.
  TargetKpi target = TargetKpi::kDVol;
  /// KPIs whose *definition* changes when a fleet software upgrade ships
  /// (an endogenous drift source the paper names explicitly).
  bool upgrade_sensitive = false;
  /// KPIs whose coupling to their anchor weakens during the COVID mobility
  /// shock (traffic-mix shift: the feature->target relationship itself
  /// changes, i.e. genuine P(y|X) drift).
  bool mobility_mix_sensitive = false;
};

/// The full table schema: an ordered list of KPI columns.
class KpiSchema {
 public:
  /// Builds a schema with `num_kpis` columns (>= 9: the 6 targets plus the
  /// 3 named case-study anchors always come first).  At `num_kpis == 224`
  /// the group sizes match the paper's case study (a ~32-feature volume
  /// group, coverage and voice groups, plus auxiliary/noise KPIs).
  /// Deterministic in (num_kpis, seed).
  static KpiSchema build(int num_kpis, std::uint64_t seed = 17);

  int size() const { return static_cast<int>(specs_.size()); }
  const KpiSpec& spec(int i) const { return specs_[static_cast<std::size_t>(i)]; }
  const std::vector<KpiSpec>& specs() const { return specs_; }

  /// Column index of a forecast target.
  int target_column(TargetKpi t) const;
  /// Column index by KPI name; -1 when absent.
  int column_of(const std::string& name) const;

 private:
  std::vector<KpiSpec> specs_;
  std::array<int, 6> target_columns_{};
};

/// Dispersion (Std/Mean) the generator aims for per target, mirroring the
/// ordering in Tables 2 and 6: GDR >> CDR ~ PU > REst ~ DVol > DTP, with
/// the Evolving dataset more dispersed than Fixed.
double paper_dispersion(TargetKpi t, bool evolving);

}  // namespace leaf::data
