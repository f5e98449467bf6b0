#include "ingest/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/events.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace leaf::ingest {

namespace {

/// Leading slice of the stream used to fit per-KPI plausibility bounds.
constexpr int kBoundsFitDays = 180;
/// Records with more than this fraction of quarantined columns are
/// rejected wholesale.
constexpr double kRecordRejectFraction = 0.5;

}  // namespace

int IngestResult::outage_days(int column) const {
  const auto& series = kpi_health[static_cast<std::size_t>(column)];
  return static_cast<int>(
      std::count(series.begin(), series.end(), HealthState::kOutage));
}

IngestResult ingest_stream(const data::CellularDataset& like,
                           std::vector<TelemetryRecord> stream,
                           obs::EventLog* events) {
  LEAF_SPAN("ingest.stream");
  const int num_days = like.num_days();
  const int num_kpis = like.num_kpis();
  const int num_enbs = static_cast<int>(like.profiles().size());
  const std::size_t k = static_cast<std::size_t>(num_kpis);

  IngestResult res{
      data::CellularDataset(like.schema(), like.profiles(), num_days,
                            like.evolving(), like.name() + "-ingested"),
      {}, {}, {}};
  IngestReport& rep = res.report;
  rep.records_in = static_cast<std::int64_t>(stream.size());

  // --- re-sequencing: count late arrivals, re-slot by claimed day ----------
  int max_day_seen = -1;
  for (const TelemetryRecord& r : stream) {
    if (r.day < max_day_seen) ++rep.late_records;
    max_day_seen = std::max(max_day_seen, r.day);
  }
  // Records claiming a day outside the study can never be slotted.
  const auto bad_day = [num_days](const TelemetryRecord& r) {
    return r.day < 0 || r.day >= num_days;
  };
  rep.quarantined_records += static_cast<std::int64_t>(
      std::count_if(stream.begin(), stream.end(), bad_day));
  stream.erase(std::remove_if(stream.begin(), stream.end(), bad_day),
               stream.end());
  std::stable_sort(stream.begin(), stream.end(),
                   [](const TelemetryRecord& a, const TelemetryRecord& b) {
                     return a.day < b.day ||
                            (a.day == b.day && a.enb_index < b.enb_index);
                   });

  // --- plausibility bounds from the leading slice --------------------------
  std::vector<std::vector<double>> reference(k);
  for (const TelemetryRecord& r : stream) {
    if (r.day >= kBoundsFitDays) break;
    for (std::size_t c = 0; c < k && c < r.kpis.size(); ++c)
      reference[c].push_back(static_cast<double>(r.kpis[c]));
  }
  const KpiBounds bounds = fit_bounds(reference);

  // --- day-by-day validate / impute / track health --------------------------
  Imputer imputer(num_enbs, num_kpis);
  std::vector<HealthTracker> kpi_tracker(k);
  std::vector<HealthTracker> enb_tracker(static_cast<std::size_t>(num_enbs));
  res.kpi_health.assign(k, HealthSeries(static_cast<std::size_t>(num_days),
                                        HealthState::kOk));
  res.enb_health.assign(static_cast<std::size_t>(num_enbs),
                        HealthSeries(static_cast<std::size_t>(num_days),
                                     HealthState::kOk));
  std::vector<int> last_report_day(static_cast<std::size_t>(num_enbs), -1);

  struct DayRecord {
    const TelemetryRecord* rec = nullptr;  ///< accepted delivery, or null
    std::vector<bool> good;                ///< per-column plausibility
    int good_count = 0;
  };
  std::vector<DayRecord> slots(static_cast<std::size_t>(num_enbs));
  std::vector<int> valid_per_col(k, 0);
  std::vector<double> row(k, 0.0);

  // Health-FSM transitions and per-day quarantine totals feed the
  // structured event log; OUTAGE entries additionally warn on stderr.
  const auto on_transition = [events](int day, const std::string& entity,
                                     HealthState from, HealthState to) {
    if (from == to) return;
    if (events != nullptr) {
      events->emit({obs::EventKind::kHealthTransition, day, -1, "", "", "",
                    "entity=" + entity + ",from=" + to_string(from) +
                        ",to=" + to_string(to)});
    }
    if (to == HealthState::kOutage) {
      LEAF_LOG_WARN("ingest: %s entered OUTAGE on day %d", entity.c_str(),
                    day);
    }
  };

  std::size_t pos = 0;
  for (int d = 0; d < num_days; ++d) {
    const std::int64_t q_records_before = rep.quarantined_records;
    const std::int64_t q_values_before = rep.quarantined_values;
    imputer.begin_day(d);
    for (auto& s : slots) s.rec = nullptr;
    std::fill(valid_per_col.begin(), valid_per_col.end(), 0);

    // Pass 1: accept the first delivery per eNodeB, validate values, and
    // feed every plausible value to the imputer (so the group median sees
    // the full day's cross-section before any imputation).
    bool any_arrival = false;
    while (pos < stream.size() && stream[pos].day == d) {
      const TelemetryRecord& r = stream[pos++];
      if (r.enb_index < 0 || r.enb_index >= num_enbs ||
          r.kpis.size() != k) {
        ++rep.quarantined_records;
        continue;
      }
      any_arrival = true;
      DayRecord& slot = slots[static_cast<std::size_t>(r.enb_index)];
      if (slot.rec != nullptr) {
        ++rep.duplicates_dropped;
        continue;
      }
      slot.rec = &r;
      slot.good.assign(k, false);
      slot.good_count = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const double v = static_cast<double>(r.kpis[c]);
        if (bounds.plausible(static_cast<int>(c), v)) {
          slot.good[c] = true;
          ++slot.good_count;
        }
      }
      // Too corrupt to trust any of it: reject wholesale.
      if (static_cast<double>(k - static_cast<std::size_t>(slot.good_count)) >
          kRecordRejectFraction * static_cast<double>(k)) {
        slot.rec = nullptr;
        ++rep.quarantined_records;
        continue;
      }
      rep.quarantined_values +=
          static_cast<std::int64_t>(k) - slot.good_count;
      for (std::size_t c = 0; c < k; ++c) {
        if (slot.good[c]) {
          imputer.observe(r.enb_index, static_cast<int>(c),
                          static_cast<double>(r.kpis[c]));
          ++valid_per_col[c];
        }
      }
      last_report_day[static_cast<std::size_t>(r.enb_index)] = d;
    }
    if (!any_arrival) ++rep.days_missing;

    // Pass 2: emit the day — repair partial records, synthesize short gaps.
    std::vector<int> out_enbs;
    std::vector<float> out_values;
    int expected = 0;
    for (int e = 0; e < num_enbs; ++e) {
      const bool installed =
          like.profiles()[static_cast<std::size_t>(e)].install_day <= d;
      if (!installed) {
        res.enb_health[static_cast<std::size_t>(e)][static_cast<std::size_t>(d)] =
            enb_tracker[static_cast<std::size_t>(e)].state();
        continue;
      }
      ++expected;
      DayRecord& slot = slots[static_cast<std::size_t>(e)];
      bool emit = false;
      if (slot.rec != nullptr) {
        emit = true;
        for (std::size_t c = 0; c < k; ++c) {
          if (slot.good[c]) {
            row[c] = static_cast<double>(slot.rec->kpis[c]);
          } else {
            const double v = imputer.impute(e, static_cast<int>(c));
            if (!std::isfinite(v)) { emit = false; break; }
            row[c] = v;
            ++rep.values_imputed;
          }
        }
        if (!emit) ++rep.quarantined_records;  // unrepairable record
      } else if (last_report_day[static_cast<std::size_t>(e)] >= 0 &&
                 d - last_report_day[static_cast<std::size_t>(e)] <=
                     kStalenessCapDays) {
        // Wholly missing but recently seen: synthesize one record.  Long
        // gaps stay honest — the eNodeB simply drops out of the day.
        emit = true;
        for (std::size_t c = 0; c < k; ++c) {
          const double v = imputer.impute(e, static_cast<int>(c));
          if (!std::isfinite(v)) { emit = false; break; }
          row[c] = v;
        }
        if (emit) {
          rep.values_imputed += static_cast<std::int64_t>(k);
          ++rep.records_synthesized;
        }
      }
      if (emit) {
        out_enbs.push_back(e);
        for (std::size_t c = 0; c < k; ++c)
          out_values.push_back(static_cast<float>(row[c]));
        ++rep.records_out;
      }
      const double enb_frac =
          slot.rec != nullptr
              ? static_cast<double>(slot.good_count) / static_cast<double>(k)
              : 0.0;
      const HealthState enb_prev = enb_tracker[static_cast<std::size_t>(e)].state();
      const HealthState enb_now =
          enb_tracker[static_cast<std::size_t>(e)].step(enb_frac);
      res.enb_health[static_cast<std::size_t>(e)][static_cast<std::size_t>(d)] =
          enb_now;
      on_transition(d, "enb:" + std::to_string(e), enb_prev, enb_now);
    }
    res.clean.append_day(std::move(out_enbs), std::move(out_values));

    for (std::size_t c = 0; c < k; ++c) {
      const double frac =
          expected > 0 ? static_cast<double>(valid_per_col[c]) /
                             static_cast<double>(expected)
                       : 0.0;
      const HealthState kpi_prev = kpi_tracker[c].state();
      const HealthState kpi_now = kpi_tracker[c].step(frac);
      res.kpi_health[c][static_cast<std::size_t>(d)] = kpi_now;
      on_transition(d, "kpi:" + std::to_string(c), kpi_prev, kpi_now);
    }

    const std::int64_t q_records = rep.quarantined_records - q_records_before;
    const std::int64_t q_values = rep.quarantined_values - q_values_before;
    if (events != nullptr && (q_records > 0 || q_values > 0)) {
      events->emit({obs::EventKind::kQuarantine, d, -1, "", "", "",
                    "records=" + std::to_string(q_records) +
                        ",values=" + std::to_string(q_values)});
    }
  }

  // Registry counters mirror the report so a scrape sees ingest activity
  // without threading IngestReport through; one bulk add per call.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const auto bulk = [&reg](const char* name, std::int64_t v) {
    if (v > 0) reg.counter(name).inc(static_cast<std::uint64_t>(v));
  };
  bulk("leaf_ingest_records_in_total", rep.records_in);
  bulk("leaf_ingest_records_out_total", rep.records_out);
  bulk("leaf_ingest_late_records_total", rep.late_records);
  bulk("leaf_ingest_duplicates_dropped_total", rep.duplicates_dropped);
  bulk("leaf_ingest_quarantined_values_total", rep.quarantined_values);
  bulk("leaf_ingest_quarantined_records_total", rep.quarantined_records);
  bulk("leaf_ingest_values_imputed_total", rep.values_imputed);
  bulk("leaf_ingest_records_synthesized_total", rep.records_synthesized);
  bulk("leaf_ingest_days_missing_total", rep.days_missing);
  if (rep.quarantined_records > 0 || rep.quarantined_values > 0) {
    LEAF_LOG_WARN(
        "ingest: quarantined %lld records and %lld values out of %lld "
        "(%lld imputed, %lld synthesized)",
        static_cast<long long>(rep.quarantined_records),
        static_cast<long long>(rep.quarantined_values),
        static_cast<long long>(rep.records_in),
        static_cast<long long>(rep.values_imputed),
        static_cast<long long>(rep.records_synthesized));
  }
  return res;
}

}  // namespace leaf::ingest
