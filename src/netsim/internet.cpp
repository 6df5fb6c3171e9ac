#include "netsim/internet.hpp"

#include <algorithm>
#include <cmath>

#include "obs/prof_stack.hpp"

namespace weakkeys::netsim {

using util::Date;

Internet::Internet(std::vector<DeviceModel> models, const SimConfig& config)
    : models_(std::move(models)),
      config_(config),
      factory_(config.seed, config.miller_rabin_rounds),
      events_rng_(config.seed ^ 0x5ca1ab1eULL),
      deploy_accumulator_(models_.size(), 0.0) {}

double Internet::deploy_rate(const DeviceModel& m, const Date& month) const {
  if (m.eol_announced && month >= *m.eol_announced) return 0.0;
  double rate = m.deploy_per_month;
  if (m.deploy_ramp_start && m.deploy_ramp_end) {
    const int span = util::months_between(*m.deploy_ramp_start, *m.deploy_ramp_end);
    const int at = util::months_between(*m.deploy_ramp_start, month);
    const double f =
        span <= 0 ? (at >= 0 ? 1.0 : 0.0)
                  : std::clamp(static_cast<double>(at) / span, 0.0, 1.0);
    rate *= f;
  }
  return rate;
}

void Internet::seed_initial_population() {
  constexpr int kBackfillMonths = 48;
  const Date start = study_start();
  for (const DeviceModel& model : models_) {
    const auto count =
        static_cast<std::size_t>(std::llround(model.initial_count));
    for (std::size_t i = 0; i < count; ++i) {
      // Manufacture dates spread over the years before the study window so
      // flawed_from / flawed_until windows partition the initial fleet.
      const auto back =
          static_cast<int>(events_rng_.below(kBackfillMonths));
      const Date manufactured =
          start.add_months(-back).add_days(static_cast<std::int64_t>(events_rng_.below(28)));
      deploy(model, manufactured, manufactured);
    }
  }
}

void Internet::deploy(const DeviceModel& model, const Date& manufactured,
                      const Date& deployed) {
  Device device = factory_.manufacture(model, manufactured, deployed);
  planned_keys_[devices_.size()] = factory_.plan_keys(device, deployed);
  devices_.push_back(std::move(device));
}

void Internet::build_planned_keys() {
  struct Job {
    Device* device;
    const DeviceFactory::KeyPlan* plan;
    Device built;
  };
  std::vector<Job> jobs;
  jobs.reserve(planned_keys_.size());
  for (const auto& [index, plan] : planned_keys_) {
    jobs.push_back({&devices_[index], &plan, {}});
  }
  auto build = [this, &jobs](std::size_t i) {
    if (config_.cancel) config_.cancel->throw_if_cancelled();
    obs::prof::Frame frame("sim.build_keys");
    factory_.build_keys(*jobs[i].plan, jobs[i].built);
  };
  if (config_.pool) {
    config_.pool->parallel_for(jobs.size(), build, config_.cancel);
  } else {
    for (std::size_t i = 0; i < jobs.size(); ++i) build(i);
  }
  // The devices keep copies made on this thread: the keys and certificates
  // outlive the batch, and left in the workers' malloc arenas they raise the
  // process's peak memory over repeated runs.
  for (const Job& job : jobs) job.device->copy_keys_from(job.built);
  planned_keys_.clear();
}

void Internet::advance_month(const Date& month_start) {
  obs::Counter* deployed = nullptr;
  obs::Counter* retired = nullptr;
  obs::Counter* regenerated = nullptr;
  if (config_.telemetry) {
    auto& m = config_.telemetry->metrics();
    deployed = &m.counter("sim.devices_deployed");
    retired = &m.counter("sim.devices_retired");
    regenerated = &m.counter("sim.keys_regenerated");
  }

  // New deployments, with fractional carry so low rates still deploy.
  for (std::size_t mi = 0; mi < models_.size(); ++mi) {
    const DeviceModel& model = models_[mi];
    deploy_accumulator_[mi] += deploy_rate(model, month_start);
    const auto n = static_cast<std::size_t>(deploy_accumulator_[mi]);
    deploy_accumulator_[mi] -= static_cast<double>(n);
    if (deployed) deployed->inc(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Date when =
          month_start.add_days(static_cast<std::int64_t>(events_rng_.below(28)));
      deploy(model, when, when);
    }
  }

  // Per-device monthly events.
  const bool heartbleed_month =
      month_start.month_index() == heartbleed_date().month_index();
  for (std::size_t index = 0; index < devices_.size(); ++index) {
    Device& device = devices_[index];
    if (!device.alive) continue;
    const DeviceModel& model = *device.model;

    if (heartbleed_month && model.heartbleed_crash &&
        events_rng_.chance(model.heartbleed_offline_frac)) {
      // Crashed when scanned for Heartbleed, or pulled offline by the
      // publicity wave; the paper observed these never came back.
      device.alive = false;
      factory_.release_ip(device);
      if (retired) retired->inc();
      continue;
    }

    const double retire = (model.eol_announced && month_start >= *model.eol_announced)
                              ? model.post_eol_retire_rate
                              : model.retire_rate;
    if (events_rng_.chance(retire)) {
      device.alive = false;
      factory_.release_ip(device);
      if (retired) retired->inc();
      continue;
    }
    if (events_rng_.chance(model.churn_rate)) {
      factory_.reassign_ip(device);
    }
    if (events_rng_.chance(model.regen_rate)) {
      const Date when =
          month_start.add_days(static_cast<std::int64_t>(events_rng_.below(28)));
      planned_keys_[index] = factory_.plan_keys(device, when);
      if (regenerated) regenerated->inc();
    }
  }
}

ScanSnapshot Internet::scan(const ScanCampaign& campaign, const Date& when) {
  ScanSnapshot snap;
  snap.date = when;
  snap.source = campaign.name;
  snap.protocol = campaign.protocol;

  for (Device& device : devices_) {
    if (!device.alive) continue;
    const DeviceModel& model = *device.model;

    CertHandle presented;
    if (campaign.protocol == Protocol::kSsh) {
      if (!device.ssh_cert) continue;
      presented = device.ssh_cert;
    } else {
      if (model.protocol != campaign.protocol || !device.https_cert) continue;
      presented = device.behind_rimon ? factory_.rimon_variant(device)
                                      : device.https_cert;
    }
    if (!events_rng_.chance(campaign.coverage)) continue;

    if (model.bit_error_rate > 0 && events_rng_.chance(model.bit_error_rate)) {
      // One bit flipped on the wire or in storage; a fresh certificate
      // object because the corruption is per-observation.
      const std::size_t bits = presented->key.n.bit_length();
      presented = std::make_shared<cert::Certificate>(
          presented->with_modulus_bit_flipped(events_rng_.below(bits)));
    }

    snap.records.push_back(HostRecord{when, campaign.name, device.ip,
                                      campaign.protocol, presented,
                                      model.banner, {}});

    // Rapid7 surfaced unchained intermediates alongside some leaves.
    if (campaign.name == "Rapid7" && device.issuer_cert &&
        events_rng_.chance(config_.rapid7_intermediate_rate)) {
      snap.records.push_back(HostRecord{when, campaign.name, device.ip,
                                        campaign.protocol, device.issuer_cert,
                                        "", {}});
    }
  }
  return snap;
}

ScanDataset Internet::run(const std::vector<ScanCampaign>& campaigns) {
  seed_initial_population();

  // Schedule: month index -> campaign scan dates.
  struct Scheduled {
    const ScanCampaign* campaign;
    Date when;
  };
  std::vector<Scheduled> schedule;
  for (const auto& campaign : campaigns) {
    for (Date d = campaign.first; d <= campaign.last;
         d = d.add_months(campaign.months_between_scans)) {
      schedule.push_back({&campaign, d});
    }
  }

  ScanDataset dataset;
  std::size_t snapshots_collected = 0;
  const Date start = study_start().month_start();
  const int months = util::months_between(start, study_end()) + 1;
  obs::Counter* scanned = config_.telemetry
                              ? &config_.telemetry->metrics().counter(
                                    "sim.records_scanned")
                              : nullptr;
  for (int mi = 0; mi < months; ++mi) {
    if (config_.cancel) config_.cancel->throw_if_cancelled();
    const Date month = start.add_months(mi);
    advance_month(month);
    for (const auto& s : schedule) {
      if (s.when.month_index() != month.month_index()) continue;
      if (config_.cancel) config_.cancel->throw_if_cancelled();
      // Planned keygens accumulate across months without scans; the first
      // scan of a month waits for them.
      if (!planned_keys_.empty()) build_planned_keys();
      obs::Span span;
      if (config_.telemetry) {
        span = config_.telemetry->tracer().span("sim.scan");
        span.arg("month", month.month_index());
      }
      ScanSnapshot snap = scan(*s.campaign, s.when);
      if (scanned) scanned->inc(snap.records.size());
      ++snapshots_collected;
      if (config_.snapshot_sink) {
        config_.snapshot_sink(std::move(snap));
      } else {
        dataset.snapshots.push_back(std::move(snap));
      }
    }
    // One progress line per simulated year: the corpus build is the longest
    // silent stretch of a cold-cache run.
    if (config_.log && (mi + 1) % 12 == 0) {
      std::size_t alive = 0;
      for (const Device& d : devices_) alive += d.alive ? 1 : 0;
      config_.log("year " + std::to_string(month.year()) + ": " +
                  std::to_string(alive) + " devices alive, " +
                  std::to_string(snapshots_collected) +
                  " snapshots collected");
    }
  }

  // Ground truth (devices()) is complete when run() returns.
  build_planned_keys();

  std::sort(dataset.snapshots.begin(), dataset.snapshots.end(),
            [](const ScanSnapshot& a, const ScanSnapshot& b) {
              if (a.date != b.date) return a.date < b.date;
              return a.source < b.source;
            });
  return dataset;
}

}  // namespace weakkeys::netsim
