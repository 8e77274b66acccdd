#include "src/serve/multi_model_server.hpp"

#include <stdexcept>
#include <utility>

namespace micronas::serve {

MultiModelServer::MultiModelServer(ServerOptions options) : options_(options) {}

MultiModelServer::~MultiModelServer() { stop(); }

std::string MultiModelServer::load(const std::string& path) {
  // Registry first: mmap + validate + dedupe. Throws on corruption
  // before any lane state changes.
  const ModelRegistry::Entry entry = registry_.load(path);
  if (has_lane(entry.key)) return entry.key;
  // Build the lane (batch plan, arena, dispatcher thread) outside the
  // routing lock so submit() to every other model keeps flowing. Its
  // shared model handle is aliased to the mapped package: while this
  // server (or any in-flight batch) lives, so do the bytes its weights
  // point into.
  auto server = std::make_shared<ModelServer>(entry.model, options_);
  if (!insert_lane(entry.key, server)) {
    server->stop();  // lost a race to a concurrent load(); outside the lock too
  }
  return entry.key;
}

void MultiModelServer::add_model(const std::string& key,
                                 std::shared_ptr<const compile::CompiledModel> model) {
  if (key.empty()) throw std::invalid_argument("MultiModelServer: empty model key");
  auto server = std::make_shared<ModelServer>(std::move(model), options_);
  if (!insert_lane(key, server)) {
    server->stop();  // outside the lock, like load()
    throw std::invalid_argument("MultiModelServer: key '" + key + "' already serving");
  }
}

bool MultiModelServer::has_lane(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return servers_.find(key) != servers_.end();
}

bool MultiModelServer::insert_lane(const std::string& key, std::shared_ptr<ModelServer> server) {
  std::lock_guard<std::mutex> lock(mutex_);
  return servers_.emplace(key, std::move(server)).second;
}

std::shared_ptr<ModelServer> MultiModelServer::lane(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = servers_.find(key);
  if (it == servers_.end()) {
    throw UnknownModelError("MultiModelServer: no lane for model key '" + key + "'");
  }
  return it->second;
}

std::future<Response> MultiModelServer::submit(Request request) {
  std::shared_ptr<ModelServer> server = lane(request.model_key);
  return server->submit(std::move(request));
}

void MultiModelServer::unload(const std::string& key) {
  std::shared_ptr<ModelServer> server;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = servers_.find(key);
    if (it == servers_.end()) {
      throw UnknownModelError("MultiModelServer: no lane for model key '" + key + "'");
    }
    server = std::move(it->second);
    servers_.erase(it);
  }
  // Drain outside the lock: other models keep serving while this lane
  // finishes its queue.
  server->stop();
  registry_.evict(key);
}

void MultiModelServer::stop() {
  std::vector<std::shared_ptr<ModelServer>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot.reserve(servers_.size());
    for (const auto& [key, server] : servers_) snapshot.push_back(server);
  }
  for (const std::shared_ptr<ModelServer>& server : snapshot) server->stop();
}

ServerStats MultiModelServer::stats(const std::string& key) const { return lane(key)->stats(); }

std::vector<std::string> MultiModelServer::keys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(servers_.size());
  for (const auto& [key, server] : servers_) out.push_back(key);
  return out;
}

}  // namespace micronas::serve
