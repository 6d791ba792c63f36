#pragma once
// Minimal OAuth-style identity/token service standing in for Globus Auth.
// Services (transfer, compute, search) validate a bearer token and required
// scope before acting; the search index additionally filters query results by
// the caller's identity (visibility-filtered discovery, Sec. 2.2.3).
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/result.hpp"

namespace pico::auth {

/// An authenticated principal ("user@anl.gov").
using Identity = std::string;

/// Permission scope strings, e.g. "transfer", "compute", "search.ingest".
using Scope = std::string;

struct TokenInfo {
  Identity identity;
  std::set<Scope> scopes;
};

/// Opaque bearer token.
using Token = std::string;

class AuthService {
 public:
  explicit AuthService(uint64_t seed = 0x5EC23ull) : seed_(seed) {}

  /// Issue a token for `identity` carrying the given scopes.
  Token issue(const Identity& identity, const std::vector<Scope>& scopes);

  /// Validate a token and check it carries `required_scope`.
  util::Result<TokenInfo> validate(const Token& token,
                                   const Scope& required_scope) const;
  /// validate() without the TokenInfo copy, for callers that only need the
  /// verdict (the flow service checks every start).
  util::Status authorize(const Token& token,
                         const Scope& required_scope) const;

  /// Revoke a token; later validations fail.
  void revoke(const Token& token);

  size_t active_tokens() const { return tokens_.size(); }

  /// Fault injection: while unavailable, validate() fails with code
  /// "unavailable" (so callers can distinguish an auth outage from a bad
  /// token). issue() still works — a simplification: token minting in the
  /// facility is local to the orchestrator.
  void set_available(bool available);
  bool available() const { return available_; }

 private:
  uint64_t seed_;
  uint64_t counter_ = 0;
  bool available_ = true;
  std::map<Token, TokenInfo> tokens_;
};

}  // namespace pico::auth
