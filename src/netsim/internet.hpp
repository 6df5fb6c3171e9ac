// The internet simulator: runs device populations through the 2010-2016
// timeline and executes the historical scan campaigns against them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "netsim/catalog.hpp"
#include "netsim/dataset.hpp"
#include "netsim/device.hpp"
#include "netsim/device_model.hpp"
#include "obs/telemetry.hpp"
#include "util/cancellation.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace weakkeys::netsim {

struct SimConfig {
  std::uint64_t seed = 20160414;
  /// Population scale. Applied by the *catalog* (standard_models(scale)),
  /// which also widens/narrows boot-entropy spaces by log2(scale) so that
  /// prime-collision fractions are scale-invariant. Internet itself uses
  /// the model counts as given.
  double scale = 1.0;
  /// Miller-Rabin rounds for simulated key generation (the corpus builder's
  /// throughput knob; primality errors are vanishingly unlikely either way).
  int miller_rabin_rounds = 6;
  /// Probability that a Rapid7 record of a CA-issued host also surfaces the
  /// unchained intermediate certificate (the Section 3.1 quirk).
  double rapid7_intermediate_rate = 0.10;
  /// Simulation progress events (one line per simulated year); null
  /// discards. core::Study routes this through its telemetry sink so the
  /// multi-minute corpus build is never a silent gap.
  std::function<void(const std::string&)> log;
  /// Optional telemetry: one `sim.scan` span per executed scan snapshot and
  /// `sim.*` population counters (deployed/retired/regenerated/records).
  /// Must outlive the Internet. Does not affect the StoreKey cache identity.
  obs::Telemetry* telemetry = nullptr;
  /// Cooperative cancellation: run() polls per simulated month, per scan
  /// snapshot, and before each device's keygen, then throws
  /// util::Cancelled — cancel latency is one key per pool worker or one
  /// snapshot, whichever is in flight.
  /// Does not affect the StoreKey cache identity.
  const util::CancellationToken* cancel = nullptr;
  /// Pool for the keygen batches (null runs them on the calling thread).
  /// Draws stay serial and only keygen and certificate signing run here,
  /// so the corpus is byte-identical for any pool size. Must outlive
  /// run(). Does not affect the StoreKey cache identity.
  util::ThreadPool* pool = nullptr;
  /// Streaming emission for corpora too large to hold: when set, run()
  /// hands each completed snapshot here instead of accumulating it and
  /// returns an empty dataset, so at most one snapshot's records are ever
  /// resident (pair with core::ShardedDatasetWriter). Snapshots arrive in
  /// *generation* order (month by month, schedule order within a month) —
  /// not the date-sorted order of a returned dataset; sort after ingest if
  /// order matters. Does not affect the StoreKey cache identity.
  std::function<void(ScanSnapshot&&)> snapshot_sink;
};

class Internet {
 public:
  /// `models` describe the population; the Internet takes ownership (device
  /// records point into the stored copy).
  Internet(std::vector<DeviceModel> models, const SimConfig& config);

  /// Simulates month-by-month from study_start() to study_end(), executing
  /// every scheduled scan of every campaign. Snapshots come back
  /// date-ordered.
  ScanDataset run(const std::vector<ScanCampaign>& campaigns);

  /// Ground truth (for tests and validation; the measurement pipeline uses
  /// only the ScanDataset).
  [[nodiscard]] const std::vector<Device>& devices() const { return devices_; }
  [[nodiscard]] const std::vector<DeviceModel>& models() const { return models_; }
  [[nodiscard]] DeviceFactory& factory() { return factory_; }

 private:
  void seed_initial_population();
  void advance_month(const util::Date& month_start);
  /// Creates a device whose keys are planned now and built at the next
  /// build_planned_keys().
  void deploy(const DeviceModel& model, const util::Date& manufactured,
              const util::Date& deployed);
  /// Runs every planned keygen (on the pool when configured) and waits:
  /// the barrier before anything reads key material.
  void build_planned_keys();
  ScanSnapshot scan(const ScanCampaign& campaign, const util::Date& when);
  [[nodiscard]] double deploy_rate(const DeviceModel& m,
                                   const util::Date& month) const;

  std::vector<DeviceModel> models_;
  SimConfig config_;
  DeviceFactory factory_;
  util::Xoshiro256 events_rng_;
  std::vector<Device> devices_;
  std::vector<double> deploy_accumulator_;
  /// Device index -> its latest unbuilt plan. Indices, because devices_
  /// reallocates; a device planned twice (deployed, then regenerated)
  /// keeps only the later plan, which rewrites every key field.
  std::map<std::size_t, DeviceFactory::KeyPlan> planned_keys_;
};

}  // namespace weakkeys::netsim
