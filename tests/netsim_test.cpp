#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <thread>

#include "core/scan_store.hpp"
#include "netsim/catalog.hpp"
#include "netsim/device.hpp"
#include "netsim/internet.hpp"
#include "netsim/ip_allocator.hpp"
#include "netsim/ipv4.hpp"

namespace weakkeys::netsim {
namespace {

DeviceModel tiny_flawed_model() {
  DeviceModel m;
  m.vendor = "TestVendor";
  m.model = "TM-1";
  m.flawed_rng = rng::RngFlawModel{.boot_entropy_bits = 2,
                                   .divergence_entropy_bits = 40};
  m.flawed_from = util::Date(2000, 1, 1);
  m.initial_count = 12;
  m.deploy_per_month = 0.5;
  return m;
}

// --------------------------------------------------------------- Ipv4 ----

TEST(Ipv4, FormatsDottedQuad) {
  EXPECT_EQ(Ipv4(192, 168, 1, 254).to_string(), "192.168.1.254");
  EXPECT_EQ(Ipv4(0).to_string(), "0.0.0.0");
  EXPECT_EQ(Ipv4(0xffffffff).to_string(), "255.255.255.255");
}

TEST(Ipv4, OrderingAndHash) {
  EXPECT_LT(Ipv4(1, 0, 0, 1), Ipv4(2, 0, 0, 1));
  const std::hash<Ipv4> h;
  EXPECT_EQ(h(Ipv4(7)), h(Ipv4(7)));
}

// -------------------------------------------------------- IpAllocator ----

TEST(IpAllocator, LiveAddressesNeverCollide) {
  IpAllocator alloc(1, 0.9);
  std::set<Ipv4> live;
  for (int i = 0; i < 500; ++i) {
    const Ipv4 ip = alloc.allocate();
    EXPECT_TRUE(live.insert(ip).second) << "duplicate live lease";
  }
  EXPECT_EQ(alloc.live_count(), 500u);
}

TEST(IpAllocator, ReleasedAddressesGetReused) {
  IpAllocator alloc(2, 1.0);  // always reuse when possible
  const Ipv4 first = alloc.allocate();
  alloc.release(first);
  EXPECT_EQ(alloc.allocate(), first);
}

TEST(IpAllocator, ZeroReuseAlwaysFresh) {
  IpAllocator alloc(3, 0.0);
  const Ipv4 first = alloc.allocate();
  alloc.release(first);
  std::set<Ipv4> seen;
  for (int i = 0; i < 50; ++i) seen.insert(alloc.allocate());
  EXPECT_FALSE(seen.contains(first));
  EXPECT_EQ(alloc.free_pool_size(), 1u);
}

TEST(IpAllocator, ReuseMixesFreshAndRecycled) {
  IpAllocator alloc(4, 0.5);
  std::vector<Ipv4> batch;
  for (int i = 0; i < 100; ++i) batch.push_back(alloc.allocate());
  for (const auto& ip : batch) alloc.release(ip);
  std::set<Ipv4> old(batch.begin(), batch.end());
  int reused = 0;
  for (int i = 0; i < 100; ++i) {
    if (old.contains(alloc.allocate())) ++reused;
  }
  EXPECT_GT(reused, 20);   // reuse happens...
  EXPECT_LT(reused, 80);   // ...but not always
}

TEST(IpAllocator, AddressesAvoidReservedPrefixes) {
  IpAllocator alloc(5, 0.0);
  for (int i = 0; i < 300; ++i) {
    const std::uint32_t top = alloc.allocate().value() >> 24;
    EXPECT_NE(top, 0u);
    EXPECT_NE(top, 10u);
    EXPECT_NE(top, 127u);
    EXPECT_LT(top, 224u);
  }
}

// -------------------------------------------------------- DeviceModel ----

TEST(DeviceModel, FlawWindow) {
  DeviceModel m = tiny_flawed_model();
  m.flawed_from = util::Date(2010, 1, 1);
  m.flawed_until = util::Date(2012, 7, 1);
  EXPECT_FALSE(m.flawed_at(util::Date(2009, 12, 31)));
  EXPECT_TRUE(m.flawed_at(util::Date(2010, 1, 1)));
  EXPECT_TRUE(m.flawed_at(util::Date(2012, 6, 30)));
  EXPECT_FALSE(m.flawed_at(util::Date(2012, 7, 1)));

  m.flawed_until.reset();
  EXPECT_TRUE(m.flawed_at(util::Date(2030, 1, 1)));  // never fixed
  m.flawed_from.reset();
  EXPECT_FALSE(m.flawed_at(util::Date(2011, 1, 1)));  // never flawed
}

TEST(DeviceModel, PoolTagDefaultsAndOverride) {
  DeviceModel m = tiny_flawed_model();
  EXPECT_EQ(m.pool_tag(), "TestVendor/TM-1");
  m.shared_pool_tag = "shared/foo";
  EXPECT_EQ(m.pool_tag(), "shared/foo");
}

// ------------------------------------------------------- DeviceFactory ----

TEST(DeviceFactory, CreatesWorkingDevice) {
  const DeviceModel model = tiny_flawed_model();
  DeviceFactory factory(1, 8);
  const Device device =
      factory.create(model, util::Date(2011, 5, 1), util::Date(2011, 5, 1));
  EXPECT_TRUE(device.alive);
  EXPECT_TRUE(device.flawed);
  EXPECT_TRUE(device.https_key.is_consistent());
  ASSERT_TRUE(device.https_cert);
  EXPECT_EQ(device.https_cert->key.n, device.https_key.pub.n);
  EXPECT_TRUE(device.https_cert->is_self_signed());
  EXPECT_TRUE(device.https_cert->verify_signature(device.https_cert->key));
}

TEST(DeviceFactory, RegenerateChangesKeyAndCert) {
  const DeviceModel model = tiny_flawed_model();
  DeviceFactory factory(2, 8);
  Device device =
      factory.create(model, util::Date(2011, 5, 1), util::Date(2011, 5, 1));
  const auto old_n = device.https_key.pub.n;
  const auto old_serial = device.https_cert->serial;
  factory.regenerate(device, util::Date(2013, 1, 1));
  EXPECT_NE(device.https_key.pub.n, old_n);
  EXPECT_NE(device.https_cert->serial, old_serial);
}

TEST(DeviceFactory, BootCollisionsProduceSharedPrimes) {
  // With 2 boot-entropy bits, a dozen devices must collide.
  const DeviceModel model = tiny_flawed_model();
  DeviceFactory factory(3, 8);
  std::vector<Device> devices;
  for (int i = 0; i < 12; ++i) {
    devices.push_back(
        factory.create(model, util::Date(2011, 5, 1), util::Date(2011, 5, 1)));
  }
  bool found_shared = false;
  for (std::size_t i = 0; i < devices.size() && !found_shared; ++i) {
    for (std::size_t j = i + 1; j < devices.size(); ++j) {
      const auto g = bn::gcd(devices[i].https_key.pub.n,
                             devices[j].https_key.pub.n);
      if (g > bn::BigInt(1) && g < devices[i].https_key.pub.n) {
        found_shared = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found_shared);
}

TEST(DeviceFactory, HealthyModelNeverShares) {
  DeviceModel model = tiny_flawed_model();
  model.flawed_from.reset();  // healthy
  DeviceFactory factory(4, 8);
  std::vector<Device> devices;
  for (int i = 0; i < 10; ++i) {
    devices.push_back(
        factory.create(model, util::Date(2011, 5, 1), util::Date(2011, 5, 1)));
  }
  for (std::size_t i = 0; i < devices.size(); ++i) {
    for (std::size_t j = i + 1; j < devices.size(); ++j) {
      EXPECT_EQ(bn::gcd(devices[i].https_key.pub.n, devices[j].https_key.pub.n),
                bn::BigInt(1));
    }
  }
}

TEST(DeviceFactory, SubjectStylesRender) {
  DeviceFactory factory(5, 8);
  const util::Date d(2011, 5, 1);

  DeviceModel juniper = tiny_flawed_model();
  juniper.subject_style = SubjectStyle::kSystemGenerated;
  EXPECT_EQ(factory.create(juniper, d, d).https_cert->subject.get("CN"),
            "system generated");

  DeviceModel mcafee = tiny_flawed_model();
  mcafee.subject_style = SubjectStyle::kDefaultNames;
  const Device md = factory.create(mcafee, d, d);
  EXPECT_EQ(md.https_cert->subject.get("CN"), "Default Common Name");
  EXPECT_EQ(md.https_cert->subject.get("O"), "Default Organization");

  DeviceModel fritz = tiny_flawed_model();
  fritz.subject_style = SubjectStyle::kFritzDomains;
  const Device fd = factory.create(fritz, d, d);
  EXPECT_NE(fd.https_cert->subject.get("CN").find(".myfritz.net"),
            std::string::npos);
  EXPECT_FALSE(fd.https_cert->san_dns.empty());

  DeviceModel ip = tiny_flawed_model();
  ip.subject_style = SubjectStyle::kIpOctets;
  const Device ipd = factory.create(ip, d, d);
  EXPECT_EQ(ipd.https_cert->subject.get("CN"), ipd.ip.to_string());
}

TEST(DeviceFactory, IbmModelStaysInClique) {
  DeviceModel ibm = tiny_flawed_model();
  ibm.uses_ibm_nine_primes = true;
  DeviceFactory factory(6, 8);
  const auto& pool = factory.ibm_pool(ibm.key_bits);
  const auto possible = pool.possible_moduli();
  std::set<std::string> seen;
  for (int i = 0; i < 15; ++i) {
    const Device d =
        factory.create(ibm, util::Date(2011, 1, 1), util::Date(2011, 1, 1));
    EXPECT_TRUE(std::find(possible.begin(), possible.end(),
                          d.https_key.pub.n) != possible.end());
    seen.insert(d.https_key.pub.n.to_hex());
  }
  EXPECT_GT(seen.size(), 3u);  // draws spread over the clique
}

TEST(DeviceFactory, FixedIbmKeyIsConstant) {
  DeviceModel siemens = tiny_flawed_model();
  siemens.uses_ibm_nine_primes = true;
  siemens.fixed_ibm_key = true;
  DeviceFactory factory(7, 8);
  const Device a =
      factory.create(siemens, util::Date(2013, 2, 1), util::Date(2013, 2, 1));
  const Device b =
      factory.create(siemens, util::Date(2013, 3, 1), util::Date(2013, 3, 1));
  EXPECT_EQ(a.https_key.pub.n, b.https_key.pub.n);
  EXPECT_NE(a.https_cert->serial, b.https_cert->serial);
}

TEST(DeviceFactory, RimonVariantSwapsOnlyKey) {
  DeviceModel m = tiny_flawed_model();
  DeviceFactory factory(8, 8);
  Device device =
      factory.create(m, util::Date(2011, 1, 1), util::Date(2011, 1, 1));
  const auto variant = factory.rimon_variant(device);
  EXPECT_EQ(variant->subject, device.https_cert->subject);
  EXPECT_EQ(variant->serial, device.https_cert->serial);
  EXPECT_EQ(variant->signature, device.https_cert->signature);
  EXPECT_NE(variant->key.n, device.https_cert->key.n);
  EXPECT_FALSE(variant->verify_signature(variant->key));  // broken, as observed
  // Cached: second call returns the same object.
  EXPECT_EQ(factory.rimon_variant(device).get(), variant.get());
}

TEST(DeviceFactory, SshFirstDeviceHasSshCert) {
  DeviceModel m = tiny_flawed_model();
  m.ssh_frac = 1.0;
  DeviceFactory factory(9, 8);
  const Device d =
      factory.create(m, util::Date(2011, 1, 1), util::Date(2011, 1, 1));
  ASSERT_TRUE(d.ssh_key.has_value());
  ASSERT_TRUE(d.ssh_cert);
  EXPECT_EQ(d.ssh_cert->key.n, d.ssh_key->pub.n);
  EXPECT_NE(d.ssh_key->pub.n, d.https_key.pub.n);
}

// ------------------------------------------------------------ catalog ----

TEST(Catalog, CoversThePapersVendors) {
  const auto models = standard_models();
  std::set<std::string> vendors;
  for (const auto& m : models) vendors.insert(m.vendor);
  for (const char* expected :
       {"Juniper", "Innominate", "IBM", "Cisco", "Hewlett-Packard", "Siemens",
        "Thomson", "Fritz!Box", "Linksys", "Fortinet", "ZyXEL", "Dell",
        "Xerox", "Kronos", "McAfee", "TP-LINK", "Huawei", "D-Link", "ADTRAN",
        "Sangfor", "Schmid Telecom"}) {
    EXPECT_TRUE(vendors.contains(expected)) << expected;
  }
}

TEST(Catalog, ScaleAppliesToCountsAndBootBits) {
  const auto full = standard_models(1.0);
  const auto quarter = standard_models(0.25);
  ASSERT_EQ(full.size(), quarter.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_NEAR(quarter[i].initial_count, full[i].initial_count * 0.25, 1e-9);
    if (full[i].flawed_from) {
      EXPECT_EQ(quarter[i].flawed_rng.boot_entropy_bits,
                std::max(1, full[i].flawed_rng.boot_entropy_bits - 2));
    }
  }
}

TEST(Catalog, NotificationsMatchTable2Counts) {
  const auto notes = standard_notifications();
  int advisories = 0, notified_2012 = 0;
  for (const auto& n : notes) {
    if (n.response == ResponseClass::kPublicAdvisory) ++advisories;
    if (n.notified_2012) ++notified_2012;
  }
  EXPECT_EQ(advisories, 5);      // "Only five released a public advisory"
  EXPECT_EQ(notified_2012, 37);  // Table 2: 37 vendors notified
}

TEST(Catalog, CampaignsSpanTheStudy) {
  const auto campaigns = standard_campaigns();
  ASSERT_FALSE(campaigns.empty());
  util::Date first = campaigns.front().first, last = campaigns.front().last;
  for (const auto& c : campaigns) {
    first = std::min(first, c.first);
    last = std::max(last, c.last);
    EXPECT_GT(c.coverage, 0.5);
    EXPECT_LE(c.coverage, 1.0);
  }
  EXPECT_EQ(first, util::Date(2010, 7, 15));
  EXPECT_GE(last, util::Date(2016, 4, 1));
}

TEST(Catalog, CiscoEolAnnouncementPrecedesEndOfSale) {
  for (const auto& eol : cisco_eol_dates()) {
    EXPECT_LT(eol.announced, eol.end_of_sale) << eol.model;
  }
}

// ----------------------------------------------------------- Internet ----

class InternetSim : public ::testing::Test {
 protected:
  static ScanDataset run_tiny() {
    std::vector<DeviceModel> models;
    DeviceModel flawed = tiny_flawed_model();
    flawed.initial_count = 20;
    flawed.heartbleed_crash = true;
    flawed.heartbleed_offline_frac = 0.5;
    models.push_back(flawed);

    DeviceModel healthy = tiny_flawed_model();
    healthy.vendor = "Healthy";
    healthy.flawed_from.reset();
    healthy.initial_count = 20;
    models.push_back(healthy);

    SimConfig config;
    config.seed = 99;
    config.miller_rabin_rounds = 6;
    Internet net(models, config);
    return net.run(standard_campaigns());
  }
};

TEST_F(InternetSim, ProducesDateOrderedSnapshots) {
  const ScanDataset ds = run_tiny();
  ASSERT_FALSE(ds.snapshots.empty());
  for (std::size_t i = 1; i < ds.snapshots.size(); ++i) {
    EXPECT_LE(ds.snapshots[i - 1].date, ds.snapshots[i].date);
  }
}

TEST_F(InternetSim, HeartbleedCrashShrinksPopulation) {
  const ScanDataset ds = run_tiny();
  // Compare scans straddling April 2014 for the crash-prone model.
  std::size_t before = 0, after = 0;
  for (const auto& snap : ds.snapshots) {
    if (snap.protocol != Protocol::kHttps) continue;
    if (snap.date <= util::Date(2014, 3, 31)) before = snap.records.size();
    if (after == 0 && snap.date >= util::Date(2014, 5, 1))
      after = snap.records.size();
  }
  ASSERT_GT(before, 0u);
  ASSERT_GT(after, 0u);
  EXPECT_LT(after, before);  // half of one model went dark
}

TEST_F(InternetSim, DeterministicBySeed) {
  const ScanDataset a = run_tiny();
  const ScanDataset b = run_tiny();
  ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
  EXPECT_EQ(a.total_host_records(), b.total_host_records());
  for (std::size_t i = 0; i < a.snapshots.size(); ++i) {
    ASSERT_EQ(a.snapshots[i].records.size(), b.snapshots[i].records.size());
    for (std::size_t j = 0; j < a.snapshots[i].records.size(); ++j) {
      EXPECT_EQ(a.snapshots[i].records[j].cert().key.n,
                b.snapshots[i].records[j].cert().key.n);
    }
  }
}

TEST_F(InternetSim, ProtocolScansCoverTheirPopulations) {
  std::vector<DeviceModel> models;
  DeviceModel https = tiny_flawed_model();
  https.initial_count = 15;
  models.push_back(https);
  DeviceModel ssh = tiny_flawed_model();
  ssh.vendor = "SshOnly";
  ssh.protocol = Protocol::kSsh;
  ssh.initial_count = 10;
  models.push_back(ssh);
  DeviceModel mail = tiny_flawed_model();
  mail.vendor = "MailCo";
  mail.protocol = Protocol::kImaps;
  mail.initial_count = 8;
  models.push_back(mail);

  SimConfig config;
  config.seed = 77;
  config.miller_rabin_rounds = 5;
  Internet net(models, config);
  const ScanDataset ds = net.run(standard_campaigns());

  std::size_t https_records = 0, ssh_records = 0, imaps_records = 0;
  for (const auto& snap : ds.snapshots) {
    for (const auto& rec : snap.records) {
      switch (rec.protocol) {
        case Protocol::kHttps: ++https_records; break;
        case Protocol::kSsh: ++ssh_records; break;
        case Protocol::kImaps: ++imaps_records; break;
        default: break;
      }
    }
  }
  EXPECT_GT(https_records, 0u);
  EXPECT_GT(ssh_records, 0u);    // the single Censys SSH scan
  EXPECT_GT(imaps_records, 0u);  // the single Censys IMAPS scan
  // SSH-only hosts never appear in HTTPS scans.
  for (const auto& snap : ds.snapshots) {
    if (snap.protocol != Protocol::kHttps) continue;
    for (const auto& rec : snap.records) {
      EXPECT_NE(rec.cert().subject.get("CN").substr(0, 4), "ssh-");
    }
  }
}

TEST_F(InternetSim, Rapid7SurfacesIntermediates) {
  std::vector<DeviceModel> models;
  DeviceModel web = tiny_flawed_model();
  web.flawed_from.reset();
  web.ca_issued = true;
  web.initial_count = 60;
  models.push_back(web);

  SimConfig config;
  config.seed = 88;
  config.miller_rabin_rounds = 5;
  config.rapid7_intermediate_rate = 0.5;
  Internet net(models, config);
  const ScanDataset ds = net.run(standard_campaigns());

  std::size_t rapid7_intermediates = 0, other_intermediates = 0;
  for (const auto& snap : ds.snapshots) {
    for (const auto& rec : snap.records) {
      const bool is_ca =
          rec.cert().subject.get("CN").rfind("Intermediate CA", 0) == 0;
      if (!is_ca) continue;
      if (snap.source == "Rapid7") {
        ++rapid7_intermediates;
      } else {
        ++other_intermediates;
      }
    }
  }
  EXPECT_GT(rapid7_intermediates, 0u);   // the Section 3.1 quirk
  EXPECT_EQ(other_intermediates, 0u);    // other sources exclude issuers
}

TEST_F(InternetSim, DistinctModuliMatchesKeyCount) {
  const ScanDataset ds = run_tiny();
  // 40 initial devices plus ~70 deployed over the 71 months, plus
  // regenerations; distinct moduli in a sane band.
  const auto moduli = ds.distinct_moduli();
  EXPECT_GE(moduli.size(), 60u);
  EXPECT_LE(moduli.size(), 180u);
  EXPECT_GE(ds.distinct_certificates(), moduli.size());
}

// ----------------------------------------------- Parallel corpus build ----

/// A population that exercises every input the serial plan step snapshots:
/// IP-octet subjects under heavy churn, devices deployed, re-addressed and
/// regenerated within one month, SSH keys, CA-issued leaves and the IBM
/// pool.
std::vector<DeviceModel> churny_models() {
  std::vector<DeviceModel> models;
  DeviceModel ip_octets = tiny_flawed_model();
  ip_octets.vendor = "OctetCo";
  ip_octets.subject_style = SubjectStyle::kIpOctets;
  ip_octets.initial_count = 20;
  ip_octets.deploy_per_month = 1.5;
  ip_octets.churn_rate = 0.5;
  ip_octets.regen_rate = 0.08;
  ip_octets.ssh_frac = 0.4;
  models.push_back(ip_octets);

  DeviceModel issued = tiny_flawed_model();
  issued.vendor = "WebCo";
  issued.flawed_from.reset();
  issued.ca_issued = true;
  issued.initial_count = 10;
  issued.regen_rate = 0.05;
  models.push_back(issued);

  DeviceModel ibm = tiny_flawed_model();
  ibm.vendor = "IBM";
  ibm.uses_ibm_nine_primes = true;
  ibm.initial_count = 6;
  ibm.regen_rate = 0.05;
  models.push_back(ibm);

  DeviceModel ssh = tiny_flawed_model();
  ssh.vendor = "SshOnly";
  ssh.protocol = Protocol::kSsh;
  ssh.initial_count = 6;
  models.push_back(ssh);
  return models;
}

struct CorpusRun {
  std::vector<std::uint8_t> cache_bytes;
  std::unique_ptr<Internet> net;  ///< owns the models devices point into
};

CorpusRun run_churny(util::ThreadPool* pool) {
  SimConfig config;
  config.seed = 4242;
  config.miller_rabin_rounds = 4;
  config.pool = pool;
  CorpusRun out;
  out.net = std::make_unique<Internet>(churny_models(), config);
  const ScanDataset ds = out.net->run(standard_campaigns());

  const std::string path = ::testing::TempDir() + "netsim_churny_" +
                           std::to_string(::getpid()) + ".cache";
  core::save_dataset(ds, core::StoreKey{4242, 0, 4, 0}, path);
  std::ifstream in(path, std::ios::binary);
  out.cache_bytes.assign(std::istreambuf_iterator<char>(in), {});
  std::remove(path.c_str());
  return out;
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(ParallelCorpus, PoolSizeDoesNotChangeTheCorpus) {
  const CorpusRun serial = run_churny(nullptr);
  ASSERT_FALSE(serial.cache_bytes.empty());
  // The corpus the keygen-inline simulator produced for this seed and
  // model set, before keygen moved onto the pool.
  EXPECT_EQ(fnv1a(serial.cache_bytes), 0xdfa20dbd613dc032ULL);

  // The cases the plan snapshot exists for actually occur: a device whose
  // final certificate dates from a regeneration in its deployment month,
  // and an IP-octet subject naming an address the device has since left.
  std::size_t same_month_regens = 0, stale_octets = 0;
  for (const Device& d : serial.net->devices()) {
    if (!d.https_cert) continue;
    const util::Date issued = d.https_cert->validity.not_before;
    if (issued != d.deployed &&
        issued.month_index() == d.deployed.month_index()) {
      ++same_month_regens;
    }
    if (d.model->subject_style == SubjectStyle::kIpOctets &&
        d.https_cert->subject.get("CN") != d.ip.to_string()) {
      ++stale_octets;
    }
  }
  EXPECT_GT(same_month_regens, 0u);
  EXPECT_GT(stale_octets, 0u);

  for (const std::size_t threads : {2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::ThreadPool pool(threads);
    const CorpusRun parallel = run_churny(&pool);
    EXPECT_TRUE(parallel.cache_bytes == serial.cache_bytes);
    const auto& want = serial.net->devices();
    const auto& got = parallel.net->devices();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      const Device& a = want[i];
      const Device& b = got[i];
      EXPECT_EQ(a.https_key.pub.n, b.https_key.pub.n) << "device " << i;
      ASSERT_EQ(a.ssh_key.has_value(), b.ssh_key.has_value()) << "device " << i;
      if (a.ssh_key) EXPECT_EQ(a.ssh_key->pub.n, b.ssh_key->pub.n);
      ASSERT_EQ(a.https_cert == nullptr, b.https_cert == nullptr);
      if (a.https_cert) EXPECT_EQ(a.https_cert->serial, b.https_cert->serial);
      ASSERT_EQ(a.ssh_cert == nullptr, b.ssh_cert == nullptr);
      if (a.ssh_cert) EXPECT_EQ(a.ssh_cert->serial, b.ssh_cert->serial);
    }
  }
}

TEST(ParallelCorpus, CancelDuringSeedingBatchThrowsOnceAndDrainsPool) {
  // Only an initial fleet: the first keygen batch is the seeding batch.
  std::vector<DeviceModel> models;
  DeviceModel fleet = tiny_flawed_model();
  fleet.flawed_from.reset();
  fleet.initial_count = 400;
  fleet.deploy_per_month = 0;
  fleet.regen_rate = 0;
  models.push_back(fleet);

  obs::Telemetry telemetry;
  util::ThreadPool pool(2, &telemetry);
  util::CancellationToken token;
  SimConfig config;
  config.seed = 5;
  config.miller_rabin_rounds = 4;
  config.pool = &pool;
  config.cancel = &token;
  Internet net(models, config);

  // Trip the token once the pool has finished its first keygen.
  auto& completed = telemetry.metrics().counter("threadpool.tasks_completed");
  std::thread tripper([&] {
    while (completed.value() == 0) std::this_thread::yield();
    token.cancel("test");
  });
  int cancelled = 0;
  try {
    (void)net.run(standard_campaigns());
  } catch (const util::Cancelled&) {
    ++cancelled;
  }
  tripper.join();
  EXPECT_EQ(cancelled, 1);
  EXPECT_EQ(telemetry.metrics().gauge("threadpool.queue_depth").value(), 0);
  // Only the few tasks already past their poll built a key; the rest
  // returned at once. Had all 400 built one, the tasks' total time would be
  // hundreds of times the slowest task's, not a few dozen.
  const auto& task_us = telemetry.metrics().histogram("threadpool.task_us");
  EXPECT_GT(task_us.max(), 0u);
  EXPECT_LT(task_us.sum(), 50 * task_us.max());
  // A cancelled batch installs no keys.
  for (const Device& d : net.devices()) EXPECT_FALSE(d.https_cert);
}

// ----------------------------------------------------------- Protocol ----

TEST(Protocol, ToStringIsTotal) {
  EXPECT_EQ(to_string(Protocol::kHttps), "HTTPS");
  EXPECT_EQ(to_string(Protocol::kSmtps), "SMTPS");
  // Out-of-enum values (cast from corrupted serialized bytes) map to a
  // diagnostic string instead of throwing mid-study.
  EXPECT_EQ(to_string(static_cast<Protocol>(99)), "unknown-protocol(99)");
  EXPECT_EQ(to_string(static_cast<Protocol>(kProtocolCount)),
            "unknown-protocol(" + std::to_string(kProtocolCount) + ")");
}

TEST(Protocol, FromIndexIsTotalInverse) {
  for (std::uint32_t i = 0; i < kProtocolCount; ++i) {
    const auto p = protocol_from_index(i);
    ASSERT_TRUE(p.has_value()) << i;
    EXPECT_EQ(static_cast<std::uint32_t>(*p), i);
    EXPECT_EQ(to_string(*p).find("unknown"), std::string::npos);
  }
  EXPECT_FALSE(protocol_from_index(kProtocolCount).has_value());
  EXPECT_FALSE(protocol_from_index(0xffffffffu).has_value());
}

}  // namespace
}  // namespace weakkeys::netsim
