#include "cert/certificate.hpp"

#include "obs/prof_stack.hpp"
#include "rsa/pkcs1.hpp"
#include "util/hex.hpp"

namespace weakkeys::cert {

namespace {

// TLV tags for certificate fields.
enum Tag : std::uint8_t {
  kTagCertificate = 0x01,
  kTagTbs = 0x02,
  kTagSerial = 0x03,
  kTagSubject = 0x04,
  kTagIssuer = 0x05,
  kTagSan = 0x06,
  kTagSanEntry = 0x07,
  kTagNotBefore = 0x08,
  kTagNotAfter = 0x09,
  kTagModulus = 0x0a,
  kTagExponent = 0x0b,
  kTagSigAlg = 0x0c,
  kTagSignature = 0x0d,
  kTagDn = 0x0e,
  kTagDnType = 0x0f,
  kTagDnValue = 0x10,
};

void put_dn(TlvWriter& w, std::uint8_t tag, const DistinguishedName& dn) {
  TlvWriter inner;
  for (const auto& [t, v] : dn.attributes()) {
    inner.put_string(kTagDnType, t);
    inner.put_string(kTagDnValue, v);
  }
  w.put_nested(tag, inner);
}

/// Total DN decoder: a nested payload whose inner TLV sequence is malformed
/// in any way (framing, tags, truncation) reads as kBadDn — the taxonomy
/// groups every broken-attribute-list shape under one reason.
ParseError try_read_dn(TlvReader& r, std::uint8_t tag, DistinguishedName& out) {
  TlvReader inner;
  if (const ParseError e = r.try_read_nested(tag, inner); e != ParseError::kNone)
    return e;
  DistinguishedName dn;
  while (!inner.at_end()) {
    std::string t;
    std::string v;
    if (inner.try_read_string(kTagDnType, t) != ParseError::kNone ||
        inner.try_read_string(kTagDnValue, v) != ParseError::kNone) {
      return ParseError::kBadDn;
    }
    dn.add(std::move(t), std::move(v));
  }
  out = std::move(dn);
  return ParseError::kNone;
}

/// Total date decoder: a string field that is not a real YYYY-MM-DD calendar
/// date reads as kBadDate.
ParseError try_read_date(TlvReader& r, std::uint8_t tag, util::Date& out) {
  std::string text;
  if (const ParseError e = r.try_read_string(tag, text); e != ParseError::kNone)
    return e;
  try {
    out = util::Date::parse(text);
  } catch (const std::exception&) {
    return ParseError::kBadDate;
  }
  return ParseError::kNone;
}

}  // namespace

std::vector<std::uint8_t> Certificate::encode_tbs() const {
  TlvWriter tbs;
  tbs.put_u64(kTagSerial, serial);
  put_dn(tbs, kTagSubject, subject);
  put_dn(tbs, kTagIssuer, issuer);
  TlvWriter san;
  for (const auto& name : san_dns) san.put_string(kTagSanEntry, name);
  tbs.put_nested(kTagSan, san);
  tbs.put_string(kTagNotBefore, validity.not_before.to_string());
  tbs.put_string(kTagNotAfter, validity.not_after.to_string());
  tbs.put_bytes(kTagModulus, key.n.to_bytes());
  tbs.put_bytes(kTagExponent, key.e.to_bytes());
  tbs.put_string(kTagSigAlg, signature_algorithm);
  return tbs.bytes();
}

std::vector<std::uint8_t> Certificate::encode() const {
  TlvWriter w;
  w.put_bytes(kTagTbs, encode_tbs());
  w.put_bytes(kTagSignature, signature);
  TlvWriter outer;
  outer.put_nested(kTagCertificate, w);
  return outer.bytes();
}

DecodeResult Certificate::try_decode(
    std::span<const std::uint8_t> data) {
  DecodeResult result;
  // On failure: record the reason and the field it surfaced in, leave
  // result.cert empty.
  const auto fail = [&result](ParseError e, const char* field) {
    result.error = e;
    result.field = field;
    return result;
  };

  TlvReader outer(data);
  TlvReader r;
  if (const ParseError e = outer.try_read_nested(kTagCertificate, r);
      e != ParseError::kNone) {
    return fail(e, "certificate");
  }
  if (!outer.at_end()) return fail(ParseError::kTrailingGarbage, "certificate");
  std::span<const std::uint8_t> tbs_bytes;
  if (const ParseError e = r.try_read_bytes(kTagTbs, tbs_bytes);
      e != ParseError::kNone) {
    return fail(e, "tbs");
  }

  Certificate cert;
  {
    TlvReader tbs(tbs_bytes);
    if (const ParseError e = tbs.try_read_u64(kTagSerial, cert.serial);
        e != ParseError::kNone) {
      return fail(e, "serial");
    }
    if (const ParseError e = try_read_dn(tbs, kTagSubject, cert.subject);
        e != ParseError::kNone) {
      return fail(e, "subject");
    }
    if (const ParseError e = try_read_dn(tbs, kTagIssuer, cert.issuer);
        e != ParseError::kNone) {
      return fail(e, "issuer");
    }
    TlvReader san;
    if (const ParseError e = tbs.try_read_nested(kTagSan, san);
        e != ParseError::kNone) {
      return fail(e, "san");
    }
    while (!san.at_end()) {
      std::string name;
      if (const ParseError e = san.try_read_string(kTagSanEntry, name);
          e != ParseError::kNone) {
        return fail(e, "san entry");
      }
      cert.san_dns.push_back(std::move(name));
    }
    if (const ParseError e =
            try_read_date(tbs, kTagNotBefore, cert.validity.not_before);
        e != ParseError::kNone) {
      return fail(e, "not-before");
    }
    if (const ParseError e =
            try_read_date(tbs, kTagNotAfter, cert.validity.not_after);
        e != ParseError::kNone) {
      return fail(e, "not-after");
    }
    std::span<const std::uint8_t> field;
    if (const ParseError e = tbs.try_read_bytes(kTagModulus, field);
        e != ParseError::kNone) {
      return fail(e, "modulus");
    }
    cert.key.n = bn::BigInt::from_bytes(field);
    if (const ParseError e = tbs.try_read_bytes(kTagExponent, field);
        e != ParseError::kNone) {
      return fail(e, "exponent");
    }
    cert.key.e = bn::BigInt::from_bytes(field);
    if (const ParseError e =
            tbs.try_read_string(kTagSigAlg, cert.signature_algorithm);
        e != ParseError::kNone) {
      return fail(e, "signature-algorithm");
    }
    if (!tbs.at_end()) return fail(ParseError::kTrailingGarbage, "tbs");
  }
  std::span<const std::uint8_t> sig;
  if (const ParseError e = r.try_read_bytes(kTagSignature, sig);
      e != ParseError::kNone) {
    return fail(e, "signature");
  }
  cert.signature.assign(sig.begin(), sig.end());
  if (!r.at_end()) return fail(ParseError::kTrailingGarbage, "certificate");
  result.cert = std::move(cert);
  return result;
}

Certificate Certificate::decode(std::span<const std::uint8_t> data) {
  DecodeResult result = try_decode(data);
  if (!result.ok()) {
    throw TlvError(std::string(to_string(result.error)) + " in " +
                   result.field);
  }
  return *std::move(result.cert);
}

crypto::Sha256::Digest Certificate::fingerprint() const {
  return crypto::Sha256::hash(encode());
}

std::string Certificate::fingerprint_hex() const {
  return crypto::digest_hex(fingerprint());
}

bool Certificate::verify_signature(const rsa::RsaPublicKey& signer) const {
  return rsa::verify(signer, encode_tbs(), signature);
}

Certificate Certificate::with_modulus_bit_flipped(std::size_t bit_index) const {
  Certificate out = *this;
  const bn::BigInt mask = bn::BigInt(1) << bit_index;
  out.key.n = out.key.n.bit(bit_index) ? out.key.n - mask : out.key.n + mask;
  return out;
}

namespace {

std::vector<std::uint8_t> sign_tbs(const Certificate& cert,
                                   const rsa::RsaPrivateKey& key) {
  obs::prof::Frame frame("cert.sign");
  return rsa::sign(key, cert.encode_tbs());
}

}  // namespace

Certificate make_issued(const DistinguishedName& subject,
                        const std::vector<std::string>& san_dns,
                        const Validity& validity,
                        const rsa::RsaPublicKey& subject_key,
                        const DistinguishedName& issuer,
                        const rsa::RsaPrivateKey& issuer_key,
                        std::uint64_t serial) {
  Certificate cert;
  cert.serial = serial;
  cert.subject = subject;
  cert.issuer = issuer;
  cert.san_dns = san_dns;
  cert.validity = validity;
  cert.key = subject_key;
  cert.signature = sign_tbs(cert, issuer_key);
  return cert;
}

Certificate make_self_signed(const DistinguishedName& subject,
                             const std::vector<std::string>& san_dns,
                             const Validity& validity,
                             const rsa::RsaPrivateKey& key,
                             std::uint64_t serial) {
  Certificate cert;
  cert.serial = serial;
  cert.subject = subject;
  cert.issuer = subject;
  cert.san_dns = san_dns;
  cert.validity = validity;
  cert.key = key.pub;
  cert.signature = sign_tbs(cert, key);
  return cert;
}

}  // namespace weakkeys::cert
