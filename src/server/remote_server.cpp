#include "server/remote_server.hpp"

#include "net/fault_injector.hpp"
#include "obs/metrics.hpp"

namespace mobi::server {

void throw_bad_id(const char* what) { throw std::out_of_range(what); }

RemoteServer::RemoteServer(const object::Catalog& catalog)
    : catalog_(&catalog),
      versions_(catalog.size(), 0),
      updated_at_(catalog.size(), 0) {}

void RemoteServer::apply_update(object::ObjectId id, sim::Tick tick) {
  check(id);
  ++versions_[id];
  updated_at_[id] = tick;
  ++total_updates_;
}

sim::Tick RemoteServer::updated_at(object::ObjectId id) const {
  check(id);
  return updated_at_[id];
}

FetchResult RemoteServer::fetch(object::ObjectId id) const {
  check(id);
  return FetchResult{versions_[id], updated_at_[id], catalog_->object_size(id)};
}

ServerPool::ServerPool(const object::Catalog& catalog,
                       std::size_t server_count)
    : object_count_(catalog.size()) {
  if (server_count == 0) {
    throw std::invalid_argument("ServerPool: need >= 1 server");
  }
  servers_.reserve(server_count);
  for (std::size_t i = 0; i < server_count; ++i) servers_.emplace_back(catalog);
}

void ServerPool::apply_update(object::ObjectId id, sim::Tick tick) {
  servers_[server_for(id)].apply_update(id, tick);
  if (metrics_) inst_.updates->add();
}

FetchResult ServerPool::fetch(object::ObjectId id) const {
  if (metrics_) inst_.fetches->add();
  return servers_[server_for(id)].fetch(id);
}

void ServerPool::set_metrics(obs::MetricsRegistry* registry,
                             const std::string& prefix) {
  metrics_ = registry;
  inst_ = {};
  if (!registry) return;
  inst_.fetches = &registry->register_counter(prefix + ".fetches");
  inst_.updates = &registry->register_counter(prefix + ".updates");
}

bool ServerPool::available(object::ObjectId id) const {
  if (!fault_) return true;
  return !fault_->server_down(server_for(id));
}

sim::Tick ServerPool::updated_at(object::ObjectId id) const {
  return servers_[server_for(id)].updated_at(id);
}

}  // namespace mobi::server
