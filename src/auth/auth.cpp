#include "auth/auth.hpp"

#include "util/strings.hpp"

namespace pico::auth {

Token AuthService::issue(const Identity& identity,
                         const std::vector<Scope>& scopes) {
  // Deterministic opaque token: hash-mixed counter (not a security boundary —
  // the simulation is in-process; the shape of the API is what matters).
  uint64_t tag = seed_ ^ (0x9E3779B97F4A7C15ull * ++counter_);
  tag ^= tag >> 29;
  tag *= 0xBF58476D1CE4E5B9ull;
  tag ^= tag >> 32;
  Token token = util::format("tok-%016llx", static_cast<unsigned long long>(tag));
  TokenInfo info;
  info.identity = identity;
  info.scopes.insert(scopes.begin(), scopes.end());
  tokens_[token] = std::move(info);
  return token;
}

util::Status AuthService::authorize(const Token& token,
                                    const Scope& required_scope) const {
  if (!available_) {
    return util::Status::err("auth service unavailable", "unavailable");
  }
  auto it = tokens_.find(token);
  if (it == tokens_.end()) {
    return util::Status::err("invalid or revoked token", "denied");
  }
  if (!required_scope.empty() && !it->second.scopes.count(required_scope)) {
    return util::Status::err("token lacks required scope: " + required_scope,
                             "denied");
  }
  return util::Status::ok();
}

util::Result<TokenInfo> AuthService::validate(
    const Token& token, const Scope& required_scope) const {
  if (auto allowed = authorize(token, required_scope); !allowed) {
    return util::Result<TokenInfo>::err(allowed.error());
  }
  return util::Result<TokenInfo>::ok(tokens_.at(token));
}

void AuthService::revoke(const Token& token) { tokens_.erase(token); }

void AuthService::set_available(bool available) { available_ = available; }

}  // namespace pico::auth
