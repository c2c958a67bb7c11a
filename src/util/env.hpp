// Strict environment-variable parsing for the runtime knobs, plus the
// central registry of every EPI_* variable the codebase reads.
//
// EPI_JOBS, EPI_SERVICE_WORKERS and friends size worker pools and caches;
// a typo'd value silently falling back to a default is exactly the kind of
// misconfiguration that costs a night of compute (the paper's runs had one
// 10pm-8am window — a farm accidentally running serial misses 8am). Every
// knob therefore parses strictly: unset or empty means "use the default",
// anything else must be a plain positive decimal integer, and malformed,
// zero, negative, or overflowing values throw epi::Error with the variable
// name and offending text instead of limping on.
//
// The same argument applies to the variable *names*: a typo'd name is a
// knob that silently never engages. kEnvRegistry below is the single
// source of truth — the accessors here reject unregistered EPI_* names at
// runtime, the epilint env-registry rule rejects them statically (any
// "EPI_*" string literal in src/ must appear in this table), and README's
// environment-variable table is generated from it
// (`build/tools/epilint --env-table`).
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace epi {

/// One registered environment variable. `summary` is the one-line
/// documentation rendered into README's table.
struct EnvVarInfo {
  const char* name;
  const char* summary;
};

/// Every EPI_* environment variable, alphabetical. Parsed by epilint
/// (tools/epilint, rule `env-registry`), enforced at runtime by the
/// accessors below, and rendered into README.md — update all consumers by
/// editing this one table.
inline constexpr EnvVarInfo kEnvRegistry[] = {
    {"EPI_BENCH_JSON",
     "directory where benchmarks write their BENCH_<name>.json reports"},
    {"EPI_CYCLE_REPORT",
     "file path where calibrate_and_forecast dumps the hexfloat "
     "calibration-cycle report"},
    {"EPI_DETERMINISTIC_TIMING",
     "zero the wall-seconds half of the obs dual clock so traces and "
     "metrics are byte-reproducible"},
    {"EPI_JOBS",
     "engine-farm worker threads (positive int; 1 = the exact serial seed "
     "path)"},
    {"EPI_LOG_LEVEL",
     "logger threshold: debug, info, warn (default), error, or off"},
    {"EPI_MPILITE_BACKEND",
     "mpilite rank transport: thread (default; ranks as threads in one "
     "process) or shm (forked processes over a POSIX shared-memory "
     "segment)"},
    {"EPI_MPILITE_CHECK",
     "any value but 0 runs mpilite under the communication checker; "
     "reports become errors at finalize"},
    {"EPI_MPILITE_CHECK_TIMEOUT_S",
     "deadlock-watchdog patience in seconds for the mpilite checker"},
    {"EPI_SERVICE_CACHE_CAP",
     "artifact-cache capacity in entries (unset = unbounded)"},
    {"EPI_SERVICE_OUT",
     "directory where the scenario-service example writes responses.txt "
     "and service_report.txt for diffing"},
    {"EPI_SERVICE_WORKERS",
     "logical workers of the scenario service's virtual-latency schedule "
     "(default 4)"},
    {"EPI_TRACE",
     "directory to write trace.json + metrics.json observability output "
     "(unset = observability fully off)"},
    {"EPI_TRACE_FLOW",
     "causal flow edges in traces: 0 disables task-chain / request "
     "arrows, anything else (or unset) leaves them on"},
};

/// True when `name` appears in kEnvRegistry.
bool env_registered(std::string_view name);

/// std::getenv through the registry: the one sanctioned way to read an
/// environment variable. Throws epi::Error when an EPI_*-prefixed `name`
/// is not in kEnvRegistry — a typo'd variable name is a knob that
/// silently never engages. Returns nullptr when unset.
const char* env_raw(const char* name);

/// Boolean knob: true when `name` is set, non-empty, and not "0".
bool env_flag(const char* name);

/// Parses `text` as a strictly positive decimal integer (digits only: no
/// sign, no whitespace, no suffix). Returns nullopt when `text` is not a
/// positive integer or does not fit in std::size_t.
std::optional<std::size_t> parse_positive_size(std::string_view text);

/// Reads environment variable `name` as a positive integer. Unset or
/// empty returns `fallback`; anything else must satisfy
/// parse_positive_size() or an epi::Error is thrown naming the variable —
/// "EPI_JOBS='banana' ..." — so misconfigured runs die at startup rather
/// than silently running with a default.
std::size_t env_positive_size(const char* name, std::size_t fallback);

/// Parses `text` as a strictly positive decimal real: digits with an
/// optional single '.' fraction (no sign, no whitespace, no exponent, no
/// hex). Returns nullopt when malformed, zero, or not finite.
std::optional<double> parse_positive_real(std::string_view text);

/// Reads environment variable `name` as a positive real (seconds-style
/// knobs such as EPI_MPILITE_CHECK_TIMEOUT_S). Unset or empty returns
/// `fallback`; anything else must satisfy parse_positive_real() or an
/// epi::Error is thrown naming the variable and the offending text.
double env_positive_real(const char* name, double fallback);

}  // namespace epi
