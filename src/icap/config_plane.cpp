#include "icap/config_plane.hpp"

#include <stdexcept>

namespace uparc::icap {

ConfigPlane::ConfigPlane(sim::Simulation& sim, std::string name, bits::Device device)
    : Module(sim, std::move(name)), device_(device) {}

void ConfigPlane::write_frame(const bits::FrameAddress& addr, WordsView data) {
  if (data.size() != device_.frame_words) {
    throw std::invalid_argument("ConfigPlane: frame size mismatch");
  }
  // Assign in place: a rewritten frame reuses its stored capacity.
  store_[addr.linear_index()].assign(data.begin(), data.end());
  ++writes_;
}

const Words* ConfigPlane::read_frame(const bits::FrameAddress& addr) const {
  auto it = store_.find(addr.linear_index());
  return it == store_.end() ? nullptr : &it->second;
}

bool ConfigPlane::contains(const std::vector<bits::Frame>& expected) const {
  for (const auto& f : expected) {
    const Words* got = read_frame(f.address);
    if (got == nullptr || *got != f.data) return false;
  }
  return true;
}

void ConfigPlane::clear() {
  store_.clear();
  writes_ = 0;
}

}  // namespace uparc::icap
