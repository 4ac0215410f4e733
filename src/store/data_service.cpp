#include "pa/store/data_service.h"

namespace pa::store {

double StoreDataService::bytes_on_site(const std::string& du_id,
                                       const std::string& site) const {
  return store_.bytes_at_site(du_id, site);
}

double StoreDataService::total_bytes(const std::string& du_id) const {
  return static_cast<double>(store_.object_bytes(du_id));
}

void StoreDataService::stage_to_site(const std::string& du_id,
                                     const std::string& site,
                                     std::function<void()> done) {
  if (!store_.known(du_id)) {
    done();  // not a store object; nothing to move
    return;
  }
  const std::string pilot_id = store_.pick_pilot_for(du_id, site);
  if (pilot_id.empty()) {
    done();  // no pilot at the site
    return;
  }
  // Complete the barrier either way: a failed transfer means the unit
  // runs without local bytes, not that it never runs.
  store_.ensure_on(pilot_id, du_id,
                   [done = std::move(done)](bool) { done(); });
}

void StoreDataService::register_output(const std::string& du_id,
                                       const std::string& site) {
  store_.record_output(du_id, site);
}

bool StoreDataService::knows(const std::string& du_id) const {
  return store_.known(du_id);
}

double StoreDataService::bytes(const std::string& du_id) const {
  return static_cast<double>(store_.object_bytes(du_id));
}

std::vector<std::string> StoreDataService::replica_sites(
    const std::string& du_id) const {
  return store_.replica_sites(du_id);
}

}  // namespace pa::store
