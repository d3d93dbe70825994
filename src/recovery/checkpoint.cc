#include "recovery/checkpoint.h"

#include "recovery/codec.h"

namespace fragdb {

namespace {
constexpr uint32_t kCheckpointMagic = 0x46444243;  // "FDBC"
}

StreamCheckpoint CheckpointImage::StreamFor(FragmentId fragment) const {
  for (const StreamCheckpoint& s : streams) {
    if (s.fragment == fragment) return s;
  }
  StreamCheckpoint fresh;
  fresh.fragment = fragment;
  return fresh;
}

std::string CheckpointImage::Encode() const {
  std::string p;
  PutI64(&p, taken_at);
  PutU32(&p, static_cast<uint32_t>(versions.size()));
  for (const VersionInfo& v : versions) {
    PutI64(&p, v.value);
    PutI64(&p, v.writer);
    PutI64(&p, v.frag_seq);
    PutI64(&p, v.installed_at);
  }
  PutU32(&p, static_cast<uint32_t>(streams.size()));
  for (const StreamCheckpoint& s : streams) {
    PutI32(&p, s.fragment);
    PutI32(&p, s.epoch);
    PutI64(&p, s.epoch_base);
    PutI64(&p, s.applied_seq);
    PutI64(&p, s.next_seq);
    PutU32(&p, static_cast<uint32_t>(s.log.size()));
    for (const QuasiRef& ref : s.log) {
      const QuasiTxn& q = *ref;
      PutI64(&p, q.origin_txn);
      PutI64(&p, q.seq);
      PutI32(&p, q.origin_node);
      PutI64(&p, q.origin_time);
      PutU32(&p, static_cast<uint32_t>(q.writes.size()));
      for (const WriteOp& w : q.writes) {
        PutI64(&p, w.object);
        PutI64(&p, w.value);
      }
    }
  }
  std::string out;
  out.reserve(p.size() + 8);
  PutU32(&out, kCheckpointMagic);
  out += p;
  PutU32(&out, Fnv1a(p));
  return out;
}

bool CheckpointImage::Decode(const std::string& bytes, CheckpointImage* out) {
  if (bytes.size() < 8) return false;
  ByteReader magic_reader(bytes);
  if (magic_reader.U32() != kCheckpointMagic) return false;
  std::string payload = bytes.substr(4, bytes.size() - 8);
  ByteReader tail(bytes, bytes.size() - 4);
  if (tail.U32() != Fnv1a(payload)) return false;

  ByteReader r(payload);
  CheckpointImage image;
  image.taken_at = r.I64();
  uint32_t nversions = r.U32();
  if (!r.ok || static_cast<size_t>(nversions) * 32 > payload.size()) {
    return false;
  }
  image.versions.resize(nversions);
  for (uint32_t i = 0; i < nversions; ++i) {
    VersionInfo& v = image.versions[i];
    v.value = r.I64();
    v.writer = r.I64();
    v.frag_seq = r.I64();
    v.installed_at = r.I64();
  }
  uint32_t nstreams = r.U32();
  if (!r.ok || static_cast<size_t>(nstreams) * 32 > payload.size()) {
    return false;
  }
  image.streams.resize(nstreams);
  for (uint32_t i = 0; i < nstreams; ++i) {
    StreamCheckpoint& s = image.streams[i];
    s.fragment = r.I32();
    s.epoch = r.I32();
    s.epoch_base = r.I64();
    s.applied_seq = r.I64();
    s.next_seq = r.I64();
    uint32_t nlog = r.U32();
    // Cheap sanity bound before reserving: each entry is >= 32 bytes.
    if (!r.ok || static_cast<size_t>(nlog) * 32 > payload.size()) {
      return false;
    }
    s.log.reserve(nlog);
    for (uint32_t j = 0; j < nlog; ++j) {
      QuasiTxn q;
      q.fragment = s.fragment;
      q.origin_txn = r.I64();
      q.seq = r.I64();
      q.origin_node = r.I32();
      q.origin_time = r.I64();
      uint32_t nwrites = r.U32();
      if (!r.ok || static_cast<size_t>(nwrites) * 16 > payload.size()) {
        return false;
      }
      q.writes.resize(nwrites);
      for (uint32_t k = 0; k < nwrites; ++k) {
        q.writes[k].object = r.I64();
        q.writes[k].value = r.I64();
      }
      s.log.push_back(MakeQuasiRef(std::move(q)));
    }
  }
  if (!r.ok || r.pos != payload.size()) return false;
  *out = std::move(image);
  return true;
}

}  // namespace fragdb
