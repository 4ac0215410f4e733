#include "pa/core/shard_router.h"

#include <cctype>

#include "pa/common/error.h"

namespace pa::core {

ShardRouter::ShardRouter(int shards) : shards_(shards) {
  PA_REQUIRE_ARG(shards >= 1, "shard count must be >= 1, got " << shards);
}

int ShardRouter::trailing_ordinal(const std::string& id) {
  const auto dash = id.rfind('-');
  if (dash == std::string::npos || dash + 1 >= id.size()) {
    return -1;
  }
  int value = 0;
  for (std::size_t i = dash + 1; i < id.size(); ++i) {
    const char c = id[i];
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
      return -1;
    }
    value = value * 10 + (c - '0');
    if (value < 0) {  // overflow guard; ids never get this large
      return -1;
    }
  }
  return value;
}

int ShardRouter::default_shard(const std::string& id) const {
  const int ordinal = trailing_ordinal(id);
  return ordinal >= 0 ? ordinal % shards_ : 0;
}

int ShardRouter::shard_for_id(const std::string& id) const {
  {
    check::MutexLock lock(mutex_);
    const auto it = owners_.find(id);
    if (it != owners_.end()) {
      return it->second.shard;
    }
  }
  return default_shard(id);
}

void ShardRouter::pin(const std::string& id, int shard, int version) {
  PA_REQUIRE_ARG(shard >= 0 && shard < shards_,
                 "shard " << shard << " out of range [0, " << shards_ << ")");
  check::MutexLock lock(mutex_);
  const auto [it, inserted] = owners_.try_emplace(id, Owner{shard, version});
  if (!inserted && version >= it->second.version) {
    it->second = Owner{shard, version};
  }
}

void ShardRouter::forget(const std::string& id) {
  check::MutexLock lock(mutex_);
  owners_.erase(id);
}

}  // namespace pa::core
