// A single simulated network device: its RNG, keys, and certificate.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "cert/certificate.hpp"
#include "netsim/dataset.hpp"
#include "netsim/device_model.hpp"
#include "netsim/ip_allocator.hpp"
#include "netsim/ipv4.hpp"
#include "rsa/ibm_nine_primes.hpp"
#include "rsa/key.hpp"
#include "util/prng.hpp"

namespace weakkeys::netsim {

struct Device {
  const DeviceModel* model = nullptr;
  util::Date manufactured;
  util::Date deployed;
  bool flawed = false;  ///< firmware carried the RNG flaw at manufacture
  bool alive = true;
  bool behind_rimon = false;
  Ipv4 ip;

  rsa::RsaPrivateKey https_key;  ///< simulation ground truth (never shown to
                                 ///< the analysis pipeline pre-factoring)
  CertHandle https_cert;
  std::optional<rsa::RsaPrivateKey> ssh_key;
  /// Pseudo-certificate wrapping the SSH host key, so SSH scan records share
  /// the HostRecord schema (unsigned; subject names the host only).
  CertHandle ssh_cert;

  /// Rimon-substituted variant of https_cert, lazily built per device.
  CertHandle rimon_cert;
  /// Intermediate CA certificate that issued https_cert (CA-issued devices
  /// only); Rapid7-style scans surface it as an extra record.
  CertHandle issuer_cert;

  /// Copies the key fields (keys, their certificates, the issuer) from
  /// `other`, allocating the copies on the calling thread; the shared CA
  /// certificate stays shared.
  void copy_keys_from(const Device& other);
};

/// Builds devices: owns the simulation PRNG stream for entropy draws, the
/// serial-number counter, and the IBM nine-prime pool.
///
/// (Re)generating a device's keys has two steps. plan_keys() is serial: it
/// makes every draw from the simulation stream, assigns the device id and
/// certificate serials, and snapshots the mutable state the keys depend on.
/// build_keys() is pure: it runs the keygens from the plan's seeds and
/// builds and signs the certificates, so plans for distinct devices can run
/// on a thread pool in any order and the corpus stays byte-identical.
class DeviceFactory {
 public:
  DeviceFactory(std::uint64_t seed, int miller_rabin_rounds);

  /// The intermediate-CA pool used to issue browser-trusted leaves.
  struct CaEntry {
    CertHandle certificate;
    rsa::RsaPrivateKey key;
  };

  /// Everything build_keys() reads besides the device's model: the
  /// boot's RNG seeds, the id and serials, and a snapshot of the address
  /// (kIpOctets subjects), the date and the issuing CA.
  struct KeyPlan {
    const DeviceModel* model = nullptr;
    bool flawed = false;
    std::uint64_t boot_state = 0;       ///< flawed boots: pool state
    std::uint64_t divergence_seed = 0;  ///< flawed boots: stir stream
    std::uint64_t healthy_seed = 0;     ///< healthy boots: PRNG seed
    std::uint64_t ibm_pick_seed = 0;    ///< IBM pool: prime-pair pick
    const rsa::IbmNinePrimeGenerator* ibm = nullptr;
    bool wants_ssh = false;
    std::uint64_t device_id = 0;
    std::uint64_t ssh_serial = 0;
    std::uint64_t https_serial = 0;
    util::Date when;
    Ipv4 ip;
    const CaEntry* ca = nullptr;  ///< issuing CA (ca_issued models)
  };

  /// Creates a device of `model` manufactured on `manufactured` and deployed
  /// on `deployed`, generating its key material and certificate.
  Device create(const DeviceModel& model, const util::Date& manufactured,
                const util::Date& deployed);

  /// create() without the keys: the device's address and Rimon draw, ready
  /// for plan_keys(device, deployed).
  Device manufacture(const DeviceModel& model, const util::Date& manufactured,
                     const util::Date& deployed);

  /// Regenerates a device's key and certificate (factory reset / firmware
  /// reinstall). Firmware flaw status is unchanged; the new boot draws fresh
  /// entropy, so a flawed device may move in or out of a collision.
  void regenerate(Device& device, const util::Date& when);

  /// The serial step of (re)generating `device`'s keys as of `when`.
  KeyPlan plan_keys(const Device& device, const util::Date& when);

  /// The compute step: rewrites every key field of `device` (see
  /// Device::copy_keys_from) from `plan`. Reads nothing else that changes,
  /// so it may run on any thread concurrently with other devices'.
  void build_keys(const KeyPlan& plan, Device& device) const;

  /// The Rimon middlebox certificate variant for this device (cached).
  CertHandle rimon_variant(Device& device);

  /// Moves the device to a different address (DHCP churn); the old address
  /// returns to the pool for reuse by later allocations.
  void reassign_ip(Device& device);

  /// Releases the device's address (retirement / crash).
  void release_ip(Device& device);

  [[nodiscard]] const rsa::IbmNinePrimeGenerator& ibm_pool(std::size_t bits);

  /// The fixed public key the Rimon ISP substitutes (never factorable).
  [[nodiscard]] const rsa::RsaPublicKey& rimon_key(std::size_t bits);

  [[nodiscard]] util::Xoshiro256& sim_rng() { return rng_; }

  [[nodiscard]] const std::vector<CaEntry>& ca_pool();

 private:
  util::Xoshiro256 rng_;
  IpAllocator ips_;
  int mr_rounds_;
  std::uint64_t next_serial_ = 1;
  std::uint64_t next_device_id_ = 1;
  std::map<std::size_t, rsa::IbmNinePrimeGenerator> ibm_pools_;
  std::map<std::size_t, rsa::RsaPrivateKey> rimon_keys_;
  std::vector<CaEntry> cas_;
};

}  // namespace weakkeys::netsim
