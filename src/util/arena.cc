#include "src/util/arena.h"

#include <cstdlib>

namespace androne {
namespace {

size_t AlignUp(size_t value, size_t align) {
  return (value + align - 1) & ~(align - 1);
}

}  // namespace

Arena::Arena(size_t chunk_bytes)
    : chunk_bytes_(chunk_bytes == 0 ? kDefaultChunkBytes : chunk_bytes) {}

Arena::~Arena() { Release(); }

void* Arena::Allocate(size_t bytes, size_t align) {
  if (bytes == 0) bytes = 1;
  if (align == 0) align = 1;

  // Try the active chunk, then any later retained chunk (Reset keeps
  // chunks mapped; a new generation walks forward through them).
  while (active_ < chunks_.size()) {
    Chunk& chunk = chunks_[active_];
    // Align the address, not the offset: operator new only guarantees the
    // chunk base to the default new alignment.
    uintptr_t base = reinterpret_cast<uintptr_t>(chunk.data);
    size_t aligned = AlignUp(base + offset_, align) - base;
    if (aligned + bytes <= chunk.size) {
      offset_ = aligned + bytes;
      bytes_used_ += bytes;
      return chunk.data + aligned;
    }
    ++active_;
    offset_ = 0;
  }

  // Need a fresh chunk. Oversized requests get a dedicated slab so a
  // single large ring never forces every later chunk to that size.
  size_t size = bytes + align > chunk_bytes_ ? bytes + align : chunk_bytes_;
  char* data = static_cast<char*>(::operator new(size));
  chunks_.push_back(Chunk{data, size});
  bytes_reserved_ += size;
  active_ = chunks_.size() - 1;

  size_t aligned = AlignUp(reinterpret_cast<uintptr_t>(data), align) -
                   reinterpret_cast<uintptr_t>(data);
  offset_ = aligned + bytes;
  bytes_used_ += bytes;
  return data + aligned;
}

void Arena::Reset() {
  active_ = 0;
  offset_ = 0;
  bytes_used_ = 0;
  ++resets_;
}

void Arena::Release() {
  for (Chunk& chunk : chunks_) ::operator delete(chunk.data);
  chunks_.clear();
  active_ = 0;
  offset_ = 0;
  bytes_reserved_ = 0;
  bytes_used_ = 0;
}

}  // namespace androne
