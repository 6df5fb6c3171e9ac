#include "netsim/device.hpp"

#include <cinttypes>
#include <cstdio>

#include "rng/prng_source.hpp"
#include "rng/urandom.hpp"

namespace weakkeys::netsim {

namespace {

constexpr int kCertValidityYears = 10;

std::string hex_id(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%08" PRIx64, id);
  return buf;
}

}  // namespace

DeviceFactory::DeviceFactory(std::uint64_t seed, int miller_rabin_rounds)
    : rng_(seed), ips_(seed ^ 0x1b1b1b1bULL), mr_rounds_(miller_rabin_rounds) {}

void DeviceFactory::reassign_ip(Device& device) {
  ips_.release(device.ip);
  device.ip = ips_.allocate();
}

void DeviceFactory::release_ip(Device& device) { ips_.release(device.ip); }

const rsa::IbmNinePrimeGenerator& DeviceFactory::ibm_pool(std::size_t bits) {
  auto it = ibm_pools_.find(bits);
  if (it == ibm_pools_.end()) {
    // Fixed tag: the pool is a property of the buggy firmware, not of the
    // simulation seed.
    it = ibm_pools_.emplace(bits, rsa::IbmNinePrimeGenerator(bits, 0x52534132ULL))
             .first;
  }
  return it->second;
}

const std::vector<DeviceFactory::CaEntry>& DeviceFactory::ca_pool() {
  if (cas_.empty()) {
    constexpr int kCaCount = 6;
    rng::PrngRandomSource healthy(0x4341504f4f4cULL);  // "CAPOOL"
    rsa::KeygenOptions opts;
    opts.modulus_bits = 256;
    opts.miller_rabin_rounds = 16;
    for (int i = 0; i < kCaCount; ++i) {
      rsa::RsaPrivateKey key = rsa::generate_key(healthy, opts);
      cert::DistinguishedName dn;
      dn.add("CN", "Intermediate CA " + std::to_string(i + 1));
      dn.add("O", "Example Trust Services");
      const cert::Validity validity{util::Date(2005, 1, 1),
                                    util::Date(2030, 1, 1)};
      auto certificate = std::make_shared<cert::Certificate>(
          cert::make_self_signed(dn, {}, validity, key, next_serial_++));
      cas_.push_back(CaEntry{std::move(certificate), std::move(key)});
    }
  }
  return cas_;
}

const rsa::RsaPublicKey& DeviceFactory::rimon_key(std::size_t bits) {
  auto it = rimon_keys_.find(bits);
  if (it == rimon_keys_.end()) {
    rng::PrngRandomSource healthy(0x52494d4f4eULL ^ bits);  // "RIMON"
    rsa::KeygenOptions opts;
    opts.modulus_bits = bits;
    opts.style = rsa::PrimeStyle::kOpenSsl;
    opts.miller_rabin_rounds = 16;
    it = rimon_keys_.emplace(bits, rsa::generate_key(healthy, opts)).first;
  }
  return it->second.pub;
}

DeviceFactory::KeyPlan DeviceFactory::plan_keys(const Device& device,
                                                const util::Date& when) {
  const DeviceModel& m = *device.model;
  KeyPlan plan;
  plan.model = &m;
  plan.flawed = device.flawed;
  plan.device_id = next_device_id_++;
  plan.when = when;
  plan.ip = device.ip;

  // Choose the RNG this boot actually has. The divergence seed is drawn
  // before the boot state: the order every existing corpus was built with.
  if (m.uses_ibm_nine_primes) {
    // Handled below without a RandomSource-driven keygen.
  } else if (device.flawed) {
    plan.divergence_seed = rng_();
    plan.boot_state = rng_();
  } else {
    plan.healthy_seed = rng_();
  }

  // SSH host key first (sshd generates at first boot, before the web UI).
  plan.wants_ssh = m.protocol == Protocol::kSsh ||
                   (m.ssh_frac > 0 && rng_.chance(m.ssh_frac));
  if (plan.wants_ssh && !m.uses_ibm_nine_primes) {
    plan.ssh_serial = next_serial_++;
  }
  if (m.protocol == Protocol::kSsh) return plan;

  if (m.uses_ibm_nine_primes) {
    plan.ibm = &ibm_pool(m.key_bits);
    if (!m.fixed_ibm_key) plan.ibm_pick_seed = rng_();
  }
  if (m.ca_issued) {
    const auto& pool = ca_pool();
    plan.ca = &pool[rng_.below(pool.size())];
  }
  plan.https_serial = next_serial_++;
  return plan;
}

namespace {

cert::DistinguishedName build_subject(const DeviceFactory::KeyPlan& plan) {
  const DeviceModel& m = *plan.model;
  cert::DistinguishedName dn;
  switch (m.subject_style) {
    case SubjectStyle::kOrgAndModel:
      dn.add("CN", m.model.empty() ? m.vendor : m.model);
      if (!m.model.empty()) dn.add("OU", m.model);
      dn.add("O", m.vendor);
      break;
    case SubjectStyle::kSystemGenerated:
      dn.add("CN", "system generated");
      break;
    case SubjectStyle::kDefaultNames:
      dn.add("CN", "Default Common Name");
      dn.add("OU", "Default Unit");
      dn.add("O", "Default Organization");
      break;
    case SubjectStyle::kIpOctets:
      dn.add("CN", plan.ip.to_string());
      break;
    case SubjectStyle::kFritzDomains:
      dn.add("CN", hex_id(plan.device_id) + ".myfritz.net");
      break;
    case SubjectStyle::kCustomerOrg:
      // Organization-specific subject carrying no vendor information.
      dn.add("CN", "mgmt-" + hex_id(plan.device_id));
      dn.add("O",
             "Customer Organization " + std::to_string(plan.device_id % 97));
      break;
    case SubjectStyle::kDellImaging:
      dn.add("CN", "printer-" + hex_id(plan.device_id));
      dn.add("OU", "Dell Imaging Group");
      dn.add("O", "Dell Inc.");
      break;
  }
  return dn;
}

}  // namespace

void DeviceFactory::build_keys(const KeyPlan& plan, Device& device) const {
  const DeviceModel& m = *plan.model;
  const util::Date& when = plan.when;

  rsa::KeygenOptions opts;
  opts.modulus_bits = m.key_bits;
  opts.style = m.prime_style;
  opts.miller_rabin_rounds = mr_rounds_;

  std::unique_ptr<bn::RandomSource> source;
  rng::SimulatedUrandom* flawed_urandom = nullptr;
  if (m.uses_ibm_nine_primes) {
    // Handled below without a RandomSource-driven keygen.
  } else if (plan.flawed) {
    auto ur = std::make_unique<rng::SimulatedUrandom>(
        m.pool_tag(), m.flawed_rng, plan.boot_state, plan.divergence_seed);
    flawed_urandom = ur.get();
    source = std::move(ur);
  } else {
    source = std::make_unique<rng::PrngRandomSource>(plan.healthy_seed);
  }

  rsa::KeygenEvents events;
  events.before_prime = [flawed_urandom](int prime_index) {
    if (flawed_urandom && prime_index == 1)
      flawed_urandom->stir_divergence_event();
  };

  device.ssh_key.reset();
  device.ssh_cert.reset();
  if (plan.wants_ssh && !m.uses_ibm_nine_primes) {
    device.ssh_key = rsa::generate_key(*source, opts, &events);
    auto ssh_cert = std::make_shared<cert::Certificate>();
    ssh_cert->serial = plan.ssh_serial;
    ssh_cert->subject.add("CN", "ssh-" + hex_id(plan.device_id));
    ssh_cert->issuer = ssh_cert->subject;
    ssh_cert->validity = {when, when.add_months(12 * kCertValidityYears)};
    ssh_cert->key = device.ssh_key->pub;
    ssh_cert->signature_algorithm = "ssh-rsa";
    device.ssh_cert = std::move(ssh_cert);
  }

  device.issuer_cert.reset();
  device.rimon_cert.reset();
  if (m.protocol == Protocol::kSsh) {
    // Dedicated SSH hosts expose no TLS service.
    device.https_key = {};
    device.https_cert.reset();
    return;
  }

  if (m.uses_ibm_nine_primes) {
    const auto& pool = *plan.ibm;
    if (m.fixed_ibm_key) {
      // Every device of this family embeds the same key from the IBM pool
      // (the Siemens Building Automation overlap).
      device.https_key =
          rsa::assemble_private_key(pool.primes()[0], pool.primes()[1],
                                    bn::BigInt(65537));
    } else {
      rng::PrngRandomSource pick(plan.ibm_pick_seed);
      device.https_key = pool.generate(pick);
    }
  } else {
    device.https_key = rsa::generate_key(*source, opts, &events);
  }

  // Default certificate: self-signed for devices, CA-issued for
  // browser-trusted web servers.
  std::vector<std::string> sans;
  if (m.subject_style == SubjectStyle::kFritzDomains) {
    sans = {"fritz.box", "www.fritz.box", "myfritz.box", "www.myfritz.box",
            "fritz.fonwlan.box"};
  }
  const cert::Validity validity{when, when.add_months(12 * kCertValidityYears)};
  const cert::DistinguishedName subject = build_subject(plan);
  if (plan.ca != nullptr) {
    device.https_cert = std::make_shared<cert::Certificate>(cert::make_issued(
        subject, sans, validity, device.https_key.pub,
        plan.ca->certificate->subject, plan.ca->key, plan.https_serial));
    device.issuer_cert = plan.ca->certificate;
  } else {
    device.https_cert = std::make_shared<cert::Certificate>(
        cert::make_self_signed(subject, sans, validity, device.https_key,
                               plan.https_serial));
  }
}

void Device::copy_keys_from(const Device& other) {
  auto copy = [](const CertHandle& c) -> CertHandle {
    return c ? std::make_shared<cert::Certificate>(*c) : nullptr;
  };
  https_key = other.https_key;
  https_cert = copy(other.https_cert);
  ssh_key = other.ssh_key;
  ssh_cert = copy(other.ssh_cert);
  rimon_cert = copy(other.rimon_cert);
  issuer_cert = other.issuer_cert;
}

Device DeviceFactory::manufacture(const DeviceModel& model,
                                  const util::Date& manufactured,
                                  const util::Date& deployed) {
  Device device;
  device.model = &model;
  device.manufactured = manufactured;
  device.deployed = deployed;
  device.flawed = model.flawed_at(manufactured);
  device.ip = ips_.allocate();
  device.behind_rimon = model.rimon_mitm_frac > 0 && rng_.chance(model.rimon_mitm_frac);
  return device;
}

Device DeviceFactory::create(const DeviceModel& model,
                             const util::Date& manufactured,
                             const util::Date& deployed) {
  Device device = manufacture(model, manufactured, deployed);
  build_keys(plan_keys(device, deployed), device);
  return device;
}

void DeviceFactory::regenerate(Device& device, const util::Date& when) {
  build_keys(plan_keys(device, when), device);
}

CertHandle DeviceFactory::rimon_variant(Device& device) {
  if (!device.rimon_cert) {
    // The middlebox swaps only the public key; everything else — including
    // the now-invalid signature — is passed through unchanged.
    auto variant = std::make_shared<cert::Certificate>(*device.https_cert);
    variant->key = rimon_key(device.model->key_bits);
    device.rimon_cert = std::move(variant);
  }
  return device.rimon_cert;
}

}  // namespace weakkeys::netsim
