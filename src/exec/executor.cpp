#include "exec/executor.hpp"

#include "util/env.hpp"

namespace epi::exec {

std::size_t jobs_from_env() { return env_positive_size("EPI_JOBS", 1); }

std::size_t resolve_jobs(std::size_t config_jobs) {
  return config_jobs != 0 ? config_jobs : jobs_from_env();
}

std::size_t effective_workers(std::size_t jobs, std::size_t items) {
  std::size_t workers = jobs == 0 ? 1 : jobs;
  if (items < workers) workers = items;
  return workers == 0 ? 1 : workers;
}

namespace detail {

void flush_obs(const ExecObs& obs, const std::string& label,
               std::size_t items, std::size_t workers, std::uint64_t steals,
               const std::vector<TaskSpan>& spans) {
  if (obs.metrics != nullptr) {
    obs.metrics->add("exec.tasks", items);
    obs.metrics->set("exec.workers", static_cast<double>(workers));
    // High-water queue depth: every task of this call is enqueued before
    // the first completes, so the submission burst is the peak.
    obs.metrics->set_max("exec.queue_depth", static_cast<double>(items));
    if (!obs.deterministic_timing) {
      // Which worker physically ran a task is a scheduler artifact; the
      // count is meaningful for load-balance diagnostics but would break
      // byte-reproducibility, so deterministic sessions skip it.
      obs.metrics->add("exec.steal", steals);
    }
  }
  if (obs.trace == nullptr || spans.empty()) return;
  // The TraceRecorder belongs to the orchestration thread, so spans are
  // flushed here — after the join — in task-index order; the stable sort
  // in TraceRecorder::to_json keeps that order within equal timestamps.
  const std::uint32_t pid = obs.trace->process("exec");
  for (std::size_t w = 0; w < workers; ++w) {
    obs.trace->thread_name(pid, static_cast<std::uint32_t>(w),
                           "worker " + std::to_string(w));
  }
  const double base_hours = obs.trace->sim_hours();
  // Chains from different parallel_map calls must not share flow ids (a
  // later call's 's' could otherwise sort before an earlier call's 'f'
  // within one sim-hour); the recorder's event count at flush time is a
  // deterministic per-call discriminator.
  const std::uint64_t call_seq = obs.trace->event_count();
  const auto queue_lane = static_cast<std::uint32_t>(workers);
  if (obs.flow) obs.trace->thread_name(pid, queue_lane, "queue");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::size_t lane =
        obs.deterministic_timing ? i % workers : spans[i].worker;
    const double duration_s =
        obs.deterministic_timing ? 0.0 : spans[i].duration_s;
    obs::TraceArgs args;
    args["index"] = static_cast<std::uint64_t>(i);
    args["worker"] = static_cast<std::uint64_t>(lane);
    args["task_s"] = duration_s;
    obs.trace->complete(pid, static_cast<std::uint32_t>(lane),
                        label + "[" + std::to_string(i) + "]", "exec",
                        base_hours, duration_s / 3600.0, std::move(args));
    if (obs.flow) {
      const std::string chain = "exec:" + label + "#" +
                                std::to_string(call_seq) + "[" +
                                std::to_string(i) + "]";
      obs::TraceArgs flow_args;
      flow_args["index"] = static_cast<std::uint64_t>(i);
      obs.trace->flow_start(pid, queue_lane, "submit", "exec", base_hours,
                            chain, flow_args);
      obs.trace->flow_step(pid, static_cast<std::uint32_t>(lane), "start",
                           "exec", base_hours, chain, flow_args);
      obs.trace->flow_end(pid, static_cast<std::uint32_t>(lane), "finish",
                          "exec", base_hours + duration_s / 3600.0, chain,
                          std::move(flow_args));
    }
  }
}

}  // namespace detail

}  // namespace epi::exec
