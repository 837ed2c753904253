#include "join/spool.h"

#include "corpus/encoding.h"

namespace scent::join {

std::size_t max_dossier_bytes(const analysis::DeviceDossier& d) noexcept {
  return corpus::kMaxVarintBytes *
         (3 + 3 * d.sightings.size() + 4 * d.anchors.size());
}

unsigned char* encode_dossier(unsigned char* p,
                              const analysis::DeviceDossier& d) noexcept {
  using corpus::put_varint;
  using corpus::zigzag_encode;
  p = put_varint(p, d.mac.bits());
  p = put_varint(p, d.sightings.size());
  for (const analysis::DossierSighting& s : d.sightings) {
    p = put_varint(p, zigzag_encode(s.day));
    p = put_varint(p, s.network);
    p = put_varint(p, s.asn);
  }
  p = put_varint(p, d.anchors.size());
  for (const analysis::GeoAnchor& a : d.anchors) {
    p = put_varint(p, zigzag_encode(a.day));
    p = put_varint(p, zigzag_encode(a.lat_udeg));
    p = put_varint(p, zigzag_encode(a.lon_udeg));
    p = put_varint(p, a.asn);
  }
  return p;
}

bool decode_dossier(const unsigned char** cursor, const unsigned char* end,
                    analysis::DeviceDossier& d) {
  std::uint64_t v = 0;
  if (!corpus::get_varint(cursor, end, v)) return false;
  d.mac = net::MacAddress{v};
  std::uint64_t count = 0;
  if (!corpus::get_varint(cursor, end, count) ||
      count > static_cast<std::uint64_t>(end - *cursor) / 3) {
    return false;
  }
  d.sightings.clear();
  d.sightings.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    analysis::DossierSighting s;
    if (!corpus::get_varint(cursor, end, v)) return false;
    s.day = corpus::zigzag_decode(v);
    if (!corpus::get_varint(cursor, end, s.network)) return false;
    if (!corpus::get_varint(cursor, end, v)) return false;
    s.asn = static_cast<std::uint32_t>(v);
    d.sightings.push_back(s);
  }
  if (!corpus::get_varint(cursor, end, count) ||
      count > static_cast<std::uint64_t>(end - *cursor) / 4) {
    return false;
  }
  d.anchors.clear();
  d.anchors.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    analysis::GeoAnchor a;
    if (!corpus::get_varint(cursor, end, v)) return false;
    a.day = corpus::zigzag_decode(v);
    if (!corpus::get_varint(cursor, end, v)) return false;
    a.lat_udeg = static_cast<std::int32_t>(corpus::zigzag_decode(v));
    if (!corpus::get_varint(cursor, end, v)) return false;
    a.lon_udeg = static_cast<std::int32_t>(corpus::zigzag_decode(v));
    if (!corpus::get_varint(cursor, end, v)) return false;
    a.asn = static_cast<std::uint32_t>(v);
    d.anchors.push_back(a);
  }
  return true;
}

void SpoolWriter::append(const analysis::DeviceDossier& d) {
  if (count_ == 0) mac_min_ = d.mac.bits();
  mac_max_ = d.mac.bits();
  const std::size_t worst = used_ + max_dossier_bytes(d);
  if (buffer_.size() < worst) buffer_.resize(worst);
  used_ = static_cast<std::size_t>(encode_dossier(buffer_.data() + used_, d) -
                                   buffer_.data());
  ++count_;
  if (used_ >= kSpoolFlushBytes) flush();
}

bool SpoolWriter::finish() {
  if (!file_.is_open()) return false;
  flush();
  return file_.finish();
}

void SpoolWriter::flush() {
  if (count_ == 0) return;
  file_.write_block({buffer_.data(), used_}, count_, mac_min_, mac_max_);
  used_ = 0;
  count_ = 0;
}

bool SpoolCursor::next(analysis::DeviceDossier& out) {
  if (!ok()) return false;
  if (remaining_ == 0) {
    if (block_ == file_.directory().size()) return false;
    if (!file_.read_block(block_, frame_)) return false;
    remaining_ = file_.directory()[block_++].elements;
    cursor_ = frame_.data();
    end_ = frame_.data() + frame_.size();
  }
  if (!decode_dossier(&cursor_, end_, out)) {
    return file_.fail(corpus::FileError::kCorrupt);
  }
  --remaining_;
  if (remaining_ == 0 && cursor_ != end_) {  // trailing bytes
    return file_.fail(corpus::FileError::kCorrupt);
  }
  return true;
}

}  // namespace scent::join
