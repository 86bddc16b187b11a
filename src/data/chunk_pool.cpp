#include "data/chunk_pool.h"

#include <utility>

#include "common/assert.h"

namespace numastream {

ChunkPool::ChunkPool(std::size_t domains, std::size_t buffers_per_domain)
    : buffers_per_domain_(buffers_per_domain),
      shelves_(domains == 0 ? 1 : domains) {
  NS_CHECK(buffers_per_domain > 0, "ChunkPool shelf capacity must be positive");
}

std::size_t ChunkPool::shelf_index(int domain) const noexcept {
  if (domain < 0) {
    return 0;
  }
  const auto index = static_cast<std::size_t>(domain);
  return index < shelves_.size() ? index : index % shelves_.size();
}

Bytes ChunkPool::lease(int domain, std::size_t size) {
  Shelf& shelf = shelves_[shelf_index(domain)];
  Bytes buffer;
  {
    const std::lock_guard<std::mutex> lock(shelf.mu);
    if (!shelf.buffers.empty()) {
      buffer = std::move(shelf.buffers.back());
      shelf.buffers.pop_back();
    }
  }
  buffer.resize(size);
  return buffer;
}

void ChunkPool::recycle(int domain, Bytes&& buffer) {
  if (buffer.capacity() == 0) {
    return;  // nothing worth shelving
  }
  buffer.clear();
  Shelf& shelf = shelves_[shelf_index(domain)];
  const std::lock_guard<std::mutex> lock(shelf.mu);
  if (shelf.buffers.size() < buffers_per_domain_) {
    shelf.buffers.push_back(std::move(buffer));
  }
  // Not shelved: `buffer` still owns its storage and frees it on return.
}

std::size_t ChunkPool::shelved(int domain) const {
  const Shelf& shelf = shelves_[shelf_index(domain)];
  const std::lock_guard<std::mutex> lock(shelf.mu);
  return shelf.buffers.size();
}

}  // namespace numastream
