// Person-trait database (the PostgreSQL substitute).
//
// In production (paper §III-IV) each region's synthetic-person table lives
// in a PostgreSQL server started per population on a dedicated compute
// node; simulations query traits at run-time, the server is instantiated
// from a pre-built snapshot to speed startup, and the number of
// simultaneous client connections is bounded — that bound is what turns
// job mapping into the DB-constrained WMP of §V.
//
// This module reproduces those semantics: a columnar in-memory trait store
// per region, explicit client Connection handles drawn from a bounded
// pool (acquiring beyond max_connections fails, as Postgres would), binary
// snapshot save/instantiate, and a registry ("one database per region",
// §V Step 1) the workflow layer starts servers in.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "resilience/fault_injector.hpp"
#include "resilience/ledger.hpp"
#include "resilience/retry_policy.hpp"
#include "synthpop/population.hpp"

namespace epi::obs {
class MetricsRegistry;
}

namespace epi {

class PersonDbServer;

/// RAII client connection. Releases its server slot on destruction.
class DbConnection {
 public:
  DbConnection(DbConnection&& other) noexcept;
  DbConnection& operator=(DbConnection&&) = delete;
  DbConnection(const DbConnection&) = delete;
  ~DbConnection();

  /// Single-person trait lookup.
  const PersonTraits& traits(PersonId p) const;

  /// All persons in a county (by county index).
  std::vector<PersonId> persons_in_county(std::uint16_t county) const;

  /// Members of a household.
  std::vector<PersonId> household_members(std::uint32_t household) const;

  /// Persons matching an age-group predicate (full scan).
  std::vector<PersonId> persons_in_age_group(AgeGroup group) const;

  PersonId person_count() const;
  std::size_t county_count() const;
  std::uint32_t county_fips(std::size_t county) const;

  /// Cumulative rows served on this connection (load accounting).
  std::uint64_t queries_served() const { return queries_; }

 private:
  friend class PersonDbServer;
  explicit DbConnection(PersonDbServer* server) : server_(server) {}
  PersonDbServer* server_;
  mutable std::uint64_t queries_ = 0;
};

/// Result of a fault-aware connection attempt: the connection (nullopt
/// when the pool is exhausted or retries ran out), how many attempts it
/// took, and the modeled backoff wait.
struct ResilientConnectResult {
  std::optional<DbConnection> connection;
  std::uint32_t attempts = 1;
  double wait_s = 0.0;
};

/// One region's person database server.
class PersonDbServer {
 public:
  /// Loads the population into columnar storage. `max_connections`
  /// mirrors the Postgres connection cap that drives DB-WMP.
  PersonDbServer(const Population& population, std::size_t max_connections);

  /// Instantiates a server from a snapshot file (the production fast-start
  /// path: "snapshots of the databases are generated when the populations
  /// are initially created, and these snapshots are instantiated at
  /// run-time").
  static std::unique_ptr<PersonDbServer> from_snapshot(
      const std::string& path, std::size_t max_connections);

  /// Writes a snapshot of this database.
  void save_snapshot(const std::string& path) const;

  /// Opens a connection; nullopt when the pool is exhausted.
  std::optional<DbConnection> connect();

  /// Opens a connection under fault injection: attempts may drop
  /// (FaultSpec::db_drop_prob) and are retried with backoff per
  /// `policy`. Every attempt — dropped or not — consumes one slot of
  /// this server's deterministic attempt sequence, so the outcome
  /// depends only on (fault seed, region, attempt index). A disabled
  /// injector drops nothing, so the first attempt is exactly connect().
  ResilientConnectResult connect_resilient(const FaultInjector& faults,
                                           const RetryPolicy& policy,
                                           ResilienceLedger* ledger = nullptr);

  std::size_t max_connections() const { return max_connections_; }
  std::size_t active_connections() const;
  /// High-water mark of simultaneously open connections.
  std::size_t peak_connections() const;

  /// Attaches a metrics sink (nullptr detaches): per-region session
  /// open/close and query counters plus active/peak connection gauges
  /// under "persondb.<region>.*".
  void set_metrics(obs::MetricsRegistry* metrics);

  const std::string& region() const { return region_; }
  PersonId person_count() const {
    return static_cast<PersonId>(persons_.size());
  }

 private:
  friend class DbConnection;
  void release(std::uint64_t queries);

  std::string region_;
  std::vector<PersonTraits> persons_;
  std::vector<Household> households_;
  std::vector<std::uint32_t> county_fips_;
  // county index -> persons (prebuilt index, like a DB btree on county).
  std::vector<std::vector<PersonId>> county_index_;

  std::size_t max_connections_;
  mutable std::mutex mutex_;
  std::size_t active_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t connect_attempts_ = 0;  // fault-keying sequence
  obs::MetricsRegistry* metrics_ = nullptr;
};

/// Region-name -> running server registry; the workflow layer's "start the
/// population databases, one per population" step.
class PersonDbRegistry {
 public:
  /// Starts a server for `population` (replacing any previous one).
  PersonDbServer& start(const Population& population,
                        std::size_t max_connections);

  /// Running server for a region; throws if not started.
  PersonDbServer& get(const std::string& region);

  bool is_running(const std::string& region) const;
  void stop(const std::string& region);
  std::size_t running_count() const { return servers_.size(); }

  /// Attaches a metrics sink to every running server and every server
  /// started afterwards; counts server starts under
  /// "persondb.servers_started".
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  std::map<std::string, std::unique_ptr<PersonDbServer>> servers_;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace epi
