#include "persondb/person_db.hpp"

#include <fstream>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace epi {

DbConnection::DbConnection(DbConnection&& other) noexcept
    : server_(other.server_), queries_(other.queries_) {
  other.server_ = nullptr;
}

DbConnection::~DbConnection() {
  if (server_ != nullptr) server_->release(queries_);
}

const PersonTraits& DbConnection::traits(PersonId p) const {
  EPI_REQUIRE(server_ != nullptr, "use of moved-from DbConnection");
  EPI_REQUIRE(p < server_->persons_.size(), "person id out of range: " << p);
  ++queries_;
  return server_->persons_[p];
}

std::vector<PersonId> DbConnection::persons_in_county(
    std::uint16_t county) const {
  EPI_REQUIRE(server_ != nullptr, "use of moved-from DbConnection");
  EPI_REQUIRE(county < server_->county_index_.size(),
              "county index out of range: " << county);
  const auto& result = server_->county_index_[county];
  queries_ += result.size();
  return result;
}

std::vector<PersonId> DbConnection::household_members(
    std::uint32_t household) const {
  EPI_REQUIRE(server_ != nullptr, "use of moved-from DbConnection");
  EPI_REQUIRE(household < server_->households_.size(),
              "household out of range: " << household);
  const Household& hh = server_->households_[household];
  std::vector<PersonId> members;
  members.reserve(hh.size);
  for (PersonId p = hh.first_person; p < hh.first_person + hh.size; ++p) {
    members.push_back(p);
  }
  queries_ += members.size();
  return members;
}

std::vector<PersonId> DbConnection::persons_in_age_group(AgeGroup group) const {
  EPI_REQUIRE(server_ != nullptr, "use of moved-from DbConnection");
  std::vector<PersonId> result;
  for (PersonId p = 0; p < server_->persons_.size(); ++p) {
    if (server_->persons_[p].age_group == static_cast<std::uint8_t>(group)) {
      result.push_back(p);
    }
  }
  queries_ += result.size();
  return result;
}

PersonId DbConnection::person_count() const {
  EPI_REQUIRE(server_ != nullptr, "use of moved-from DbConnection");
  return server_->person_count();
}

std::size_t DbConnection::county_count() const {
  EPI_REQUIRE(server_ != nullptr, "use of moved-from DbConnection");
  return server_->county_fips_.size();
}

std::uint32_t DbConnection::county_fips(std::size_t county) const {
  EPI_REQUIRE(server_ != nullptr, "use of moved-from DbConnection");
  EPI_REQUIRE(county < server_->county_fips_.size(), "county out of range");
  return server_->county_fips_[county];
}

PersonDbServer::PersonDbServer(const Population& population,
                               std::size_t max_connections)
    : region_(population.region()),
      persons_(population.persons()),
      households_(population.households()),
      county_fips_(population.county_fips_codes()),
      max_connections_(max_connections) {
  EPI_REQUIRE(max_connections_ > 0, "database needs at least one connection");
  county_index_.resize(county_fips_.size());
  for (PersonId p = 0; p < persons_.size(); ++p) {
    county_index_[persons_[p].county].push_back(p);
  }
}

namespace {
constexpr std::uint64_t kSnapshotMagic = 0x4550534e4150ULL;  // "EPSNAP"
}

void PersonDbServer::save_snapshot(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw ConfigError("cannot write snapshot: " + path);
  const std::uint64_t magic = kSnapshotMagic;
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  const std::uint64_t region_len = region_.size();
  out.write(reinterpret_cast<const char*>(&region_len), sizeof(region_len));
  out.write(region_.data(), static_cast<std::streamsize>(region_len));
  const std::uint64_t person_count = persons_.size();
  const std::uint64_t household_count = households_.size();
  const std::uint64_t county_count = county_fips_.size();
  out.write(reinterpret_cast<const char*>(&person_count), sizeof(person_count));
  out.write(reinterpret_cast<const char*>(&household_count),
            sizeof(household_count));
  out.write(reinterpret_cast<const char*>(&county_count), sizeof(county_count));
  out.write(reinterpret_cast<const char*>(persons_.data()),
            static_cast<std::streamsize>(persons_.size() * sizeof(PersonTraits)));
  out.write(reinterpret_cast<const char*>(households_.data()),
            static_cast<std::streamsize>(households_.size() * sizeof(Household)));
  out.write(reinterpret_cast<const char*>(county_fips_.data()),
            static_cast<std::streamsize>(county_fips_.size() * sizeof(std::uint32_t)));
  EPI_REQUIRE(out.good(), "short write to snapshot " << path);
}

std::unique_ptr<PersonDbServer> PersonDbServer::from_snapshot(
    const std::string& path, std::size_t max_connections) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("cannot read snapshot: " + path);
  std::uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  EPI_REQUIRE(in.good() && magic == kSnapshotMagic,
              "not a person-db snapshot: " << path);
  std::uint64_t region_len = 0;
  in.read(reinterpret_cast<char*>(&region_len), sizeof(region_len));
  std::string region(region_len, '\0');
  in.read(region.data(), static_cast<std::streamsize>(region_len));
  std::uint64_t person_count = 0, household_count = 0, county_count = 0;
  in.read(reinterpret_cast<char*>(&person_count), sizeof(person_count));
  in.read(reinterpret_cast<char*>(&household_count), sizeof(household_count));
  in.read(reinterpret_cast<char*>(&county_count), sizeof(county_count));
  EPI_REQUIRE(in.good(), "truncated snapshot header: " << path);

  std::vector<PersonTraits> persons(person_count);
  std::vector<Household> households(household_count);
  std::vector<std::uint32_t> county_fips(county_count);
  in.read(reinterpret_cast<char*>(persons.data()),
          static_cast<std::streamsize>(person_count * sizeof(PersonTraits)));
  in.read(reinterpret_cast<char*>(households.data()),
          static_cast<std::streamsize>(household_count * sizeof(Household)));
  in.read(reinterpret_cast<char*>(county_fips.data()),
          static_cast<std::streamsize>(county_count * sizeof(std::uint32_t)));
  EPI_REQUIRE(in.good(), "truncated snapshot body: " << path);

  // Reconstitute via Population to re-validate invariants, then steal the
  // columns. Snapshots come from disk; trust nothing.
  Population population(std::move(region), std::move(county_fips),
                        std::move(persons), std::move(households));
  return std::make_unique<PersonDbServer>(population, max_connections);
}

std::optional<DbConnection> PersonDbServer::connect() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (active_ >= max_connections_) {
    if (metrics_ != nullptr) {
      metrics_->add("persondb." + region_ + ".rejected");
    }
    return std::nullopt;
  }
  ++active_;
  peak_ = std::max(peak_, active_);
  if (metrics_ != nullptr) {
    metrics_->add("persondb." + region_ + ".connections_opened");
    metrics_->set("persondb." + region_ + ".active",
                  static_cast<double>(active_));
    metrics_->set_max("persondb." + region_ + ".peak",
                      static_cast<double>(active_));
  }
  return DbConnection(this);
}

ResilientConnectResult PersonDbServer::connect_resilient(
    const FaultInjector& faults, const RetryPolicy& policy,
    ResilienceLedger* ledger) {
  std::uint32_t attempt = 1;
  double wait_s = 0.0;
  while (true) {
    std::uint64_t seq;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      seq = connect_attempts_++;
    }
    if (!faults.db_drop(region_, seq)) {
      if (attempt > 1 && ledger != nullptr) {
        ledger->record(FaultKind::kDbReconnect, 0.0, region_);
        ledger->add_retry_wait_seconds(wait_s);
      }
      return ResilientConnectResult{connect(), attempt, wait_s};
    }
    if (ledger != nullptr) {
      ledger->record(FaultKind::kDbDrop, 0.0, region_);
    }
    if (metrics_ != nullptr) {
      metrics_->add("persondb." + region_ + ".dropped");
    }
    if (policy.give_up(attempt, wait_s)) {
      return ResilientConnectResult{std::nullopt, attempt, wait_s};
    }
    wait_s += policy.delay_s(
        attempt, faults.jitter(stable_label_hash(region_), attempt));
    ++attempt;
  }
}

std::size_t PersonDbServer::active_connections() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_;
}

std::size_t PersonDbServer::peak_connections() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peak_;
}

void PersonDbServer::release(std::uint64_t queries) {
  std::lock_guard<std::mutex> lock(mutex_);
  EPI_ASSERT(active_ > 0, "connection release underflow");
  --active_;
  if (metrics_ != nullptr) {
    metrics_->add("persondb." + region_ + ".connections_closed");
    if (queries > 0) metrics_->add("persondb." + region_ + ".queries", queries);
    metrics_->set("persondb." + region_ + ".active",
                  static_cast<double>(active_));
  }
}

void PersonDbServer::set_metrics(obs::MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_ = metrics;
}

PersonDbServer& PersonDbRegistry::start(const Population& population,
                                        std::size_t max_connections) {
  auto server = std::make_unique<PersonDbServer>(population, max_connections);
  PersonDbServer& ref = *server;
  servers_[population.region()] = std::move(server);
  if (metrics_ != nullptr) {
    ref.set_metrics(metrics_);
    metrics_->add("persondb.servers_started");
  }
  return ref;
}

PersonDbServer& PersonDbRegistry::get(const std::string& region) {
  const auto it = servers_.find(region);
  EPI_REQUIRE(it != servers_.end(), "no database running for region " << region);
  return *it->second;
}

bool PersonDbRegistry::is_running(const std::string& region) const {
  return servers_.count(region) != 0;
}

void PersonDbRegistry::stop(const std::string& region) {
  servers_.erase(region);
}

void PersonDbRegistry::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  for (auto& [region, server] : servers_) server->set_metrics(metrics);
}

}  // namespace epi
