#include "pfs/spill_store.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"

namespace mvio::pfs {

SpillPricer SpillPricer::flatRate(double bytesPerSecond) {
  SpillPricer p;
  p.bytesPerSecond_ = bytesPerSecond;
  return p;
}

SpillPricer SpillPricer::onVolume(Volume& volume, int node, StripeSettings stripe) {
  SpillPricer p;
  p.volume_ = &volume;
  p.node_ = node;
  p.stripe_ = stripe;
  return p;
}

double SpillPricer::seconds(std::uint64_t bytes, bool isWrite, double start) const {
  if (bytes == 0) return 0.0;
  if (volume_ == nullptr) return static_cast<double>(bytes) / bytesPerSecond_;
  StorageModel& model = volume_->model();
  const double done = isWrite ? model.write(node_, stripe_, 0, bytes, start)
                              : model.read(node_, stripe_, 0, bytes, start);
  return done - start;
}

SpillStore::SpillStore(Volume& volume, std::string prefix)
    : volume_(&volume), prefix_(std::move(prefix)) {
  MVIO_CHECK(!prefix_.empty(), "spill store needs a non-empty prefix");
}

std::string SpillStore::pathOf(const std::string& name) const { return prefix_ + "/" + name; }

void SpillStore::put(const std::string& name, std::string bytes) {
  // bytesHeld accounts only blobs this instance wrote (or adopted by
  // overwriting): replacing a blob left by an earlier instance must not
  // subtract bytes that were never added — the name is adopted instead,
  // so a later clear() also removes it.
  const auto it = written_.find(name);
  if (it != written_.end()) stats_.bytesHeld -= it->second;
  stats_.blobsWritten += 1;
  stats_.bytesWritten += bytes.size();
  stats_.bytesHeld += bytes.size();
  stats_.peakBytesHeld = std::max(stats_.peakBytesHeld, stats_.bytesHeld);
  written_[name] = bytes.size();
  volume_->createOrReplace(pathOf(name), std::make_shared<MemoryBackingStore>(std::move(bytes)));
}

std::string SpillStore::fetch(const std::string& name) const {
  return fetch(name, 0, volume_->lookup(pathOf(name))->data->size());  // throws if missing
}

std::string SpillStore::fetch(const std::string& name, std::uint64_t offset,
                              std::uint64_t n) const {
  const auto file = volume_->lookup(pathOf(name));  // throws if missing
  MVIO_CHECK(offset <= file->data->size() && n <= file->data->size() - offset,
             "spill store: ranged fetch beyond the end of " + name);
  std::string bytes(static_cast<std::size_t>(n), '\0');
  file->data->read(offset, bytes.data(), bytes.size());
  stats_.blobsRead += 1;
  stats_.bytesRead += bytes.size();
  return bytes;
}

bool SpillStore::contains(const std::string& name) const { return volume_->exists(pathOf(name)); }

void SpillStore::remove(const std::string& name) {
  const std::string path = pathOf(name);
  if (!volume_->exists(path)) return;
  // Mirror put(): only bytes this instance accounted can be released.
  const auto it = written_.find(name);
  if (it != written_.end()) {
    stats_.bytesHeld -= it->second;
    written_.erase(it);
  }
  volume_->remove(path);
}

void SpillStore::clear() {
  // remove() edits written_, so drain a copy of the names.
  std::vector<std::string> names;
  names.reserve(written_.size());
  for (const auto& [name, bytes] : written_) names.push_back(name);
  for (const auto& name : names) remove(name);
}

}  // namespace mvio::pfs
