#include "obs/metrics.hpp"

namespace ace::obs {

std::vector<SpaceMetrics> merge_by_key(const std::vector<SpaceMetrics>& segs) {
  std::vector<SpaceMetrics> out;
  for (const SpaceMetrics& s : segs) {
    SpaceMetrics* hit = nullptr;
    for (SpaceMetrics& o : out)
      if (o.space == s.space && o.protocol == s.protocol) {
        hit = &o;
        break;
      }
    if (hit == nullptr) {
      out.push_back({s.space, s.protocol, {}, 0, 0});
      hit = &out.back();
    }
    hit->merge_counters(s);
  }
  return out;
}

}  // namespace ace::obs
