// ntom_cli — the operator's command-line front end.
//
// Subcommands:
//   gen      --kind=TOPOSPEC --out=topo.txt [--seed N] [--paper]
//            Generate a topology from a registry spec ("brite,n=40",
//            "sparse,stubs=300", ...) and save it in the ntom format.
//   dot      --topo=topo.txt --out=topo.dot
//            Export the AS-level structure as Graphviz DOT.
//   monitor  --topo=topo.txt [--scenario=SCENARIOSPEC]
//            [--intervals N] [--seed N] [--nonstationary]
//            [--phase-length N] [--links-csv out.csv]
//            [--subsets-csv out.csv]
//            Simulate a monitoring experiment on the topology, run
//            Correlation-complete, print the peer report and the
//            discovered correlated groups, optionally dump CSVs.
//   list     Print the registered topologies, scenarios, estimators,
//            and imperfections with their option docs.
//   capture  --scenario=SPEC --out=run.trc [--topo=TOPOSPEC]
//            [--intervals N] [--seed N] [--packets N] [--oracle]
//            [--no-truth] [--imperfect="drop,p=0.05;..."]
//            Simulate a monitoring run and record its measurement
//            stream as a .trc dataset, O(chunk) memory at any T.
//   replay   --file=run.trc [--estimators=SPECS] [--streamed]
//            [--chunk N] [--imperfect=...] [--policy=SPEC]
//            [--partition=MODE] [--partition-max-links=N]
//            Replay a captured dataset through the estimator pipeline:
//            truth-aware Fig. 3 metrics when the trace carries the
//            ground-truth plane, observation-only scoring otherwise.
//            --policy masks the replayed stream with a probe-budget
//            planner (forces streamed mode; streaming estimators only).
//            --partition fits every estimator per partition cell
//            (ntom/part) and merges the estimates at the cut links;
//            MODE is components, bicomp, or auto (default none).
//   import   --in=loss.txt --out=run.trc [--topo=FILE] [--threshold F]
//            Convert an external per-path loss text trace
//            (TopoConfluence-style ns-3 summaries) into a .trc dataset.
//   corpus   stat  FILE|DIR ...      per-file codec and size report
//            merge --out=FILE A B .. concatenate datasets (same topology)
//            split --parts=N FILE    frame-aligned shards FILE.partK.trc
//            index DIR               write DIR/corpus.json manifest
//            Corpus maintenance over .trc files; stat fully verifies
//            each file (CRCs, structure, index agreement) on the way.
//   serve    [--scenario=SPEC | --file=run.trc] [--topo=TOPOSPEC]
//            [--intervals N] [--seed N] [--window W] [--chunk N]
//            [--estimator=SPEC] [--refit-every N] [--epochs N]
//            [--readers R] [--threshold F] [--policy=SPEC]
//            Run the online tomography service: ingest the measurement
//            stream (live simulation or .trc replay) through a
//            sliding-window estimator while R reader threads query the
//            published snapshots concurrently; each epoch re-begins on
//            a fresh topology draw with the posterior carried over
//            stable links.
//
// Example session:
//   ./ntom_cli gen --kind=sparse,stubs=300 --out=/tmp/topo.txt
//   ./ntom_cli dot --topo=/tmp/topo.txt --out=/tmp/topo.dot
//   ./ntom_cli monitor --topo=/tmp/topo.txt --scenario=noindep
//              --nonstationary --phase-length=25 --links-csv=/tmp/links.csv
//   ./ntom_cli capture --scenario=srlg --out=/tmp/srlg.trc --intervals=2000
//   ./ntom_cli replay --file=/tmp/srlg.trc --estimators=sparsity,bayes-indep
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ntom/analysis/correlation_groups.hpp"
#include "ntom/analysis/peer_report.hpp"
#include "ntom/api/experiment.hpp"
#include "ntom/exp/evals.hpp"
#include "ntom/exp/report.hpp"
#include "ntom/io/results_io.hpp"
#include "ntom/io/topology_io.hpp"
#include "ntom/service/service.hpp"
#include "ntom/sim/packet_sim.hpp"
#include "ntom/sim/scenario.hpp"
#include "ntom/tomo/correlation_complete.hpp"
#include "ntom/topogen/registry.hpp"
#include "ntom/trace/corpus.hpp"
#include "ntom/trace/imperfection.hpp"
#include "ntom/trace/import.hpp"
#include "ntom/trace/trace_writer.hpp"
#include "ntom/util/flags.hpp"
#include "ntom/util/simd/simd.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ntom_cli "
               "<gen|dot|monitor|capture|replay|import|corpus|serve|list> "
               "[--flags]\n"
               "  gen     --kind=TOPOSPEC --out=FILE [--seed N] [--paper]\n"
               "  dot     --topo=FILE --out=FILE\n"
               "  monitor --topo=FILE [--seed N]\n"
               "          [--links-csv FILE] [--subsets-csv FILE]\n"
               "          run flags: scenario intervals nonstationary "
               "phase-length\n"
               "  capture --out=FILE [--topo=TOPOSPEC] [--seed N]\n"
               "          [--no-truth] [--imperfect=SPECS]\n"
               "          run flags: scenario intervals packets oracle\n"
               "  replay  --file=FILE [--estimators=SPECS]\n"
               "          [--imperfect=SPECS]\n"
               "          run flags: streamed chunk policy partition\n"
               "          partition-max-links\n"
               "  import  --in=FILE --out=FILE [--topo=FILE] [--threshold F]\n"
               "  corpus  stat FILE|DIR... | merge --out=FILE A B... |\n"
               "          split --parts=N FILE | index DIR\n"
               "  serve   [--file=FILE] [--topo=TOPOSPEC] [--seed N]\n"
               "          [--window W] [--estimator=SPEC] [--refit-every N]\n"
               "          [--epochs N] [--readers R] [--threshold F]\n"
               "          run flags: scenario (or --file) intervals chunk "
               "policy\n"
               "  list    print registered components and option docs\n"
               "          (--json for the machine-readable catalog,\n"
               "           --what=SELECTOR to narrow either form)\n"
               "Run flags, shared with sweep_cli (each verb takes the ones "
               "listed):\n"
               "  --scenario=SPEC --intervals N --packets N --oracle\n"
               "  --nonstationary --phase-length N --fraction F --streamed\n"
               "  --chunk N --policy=SPEC\n"
               "  --partition=none|components|bicomp|auto "
               "--partition-max-links N\n"
               "Specs are \"name,key=value,...\" — see `ntom_cli list`.\n"
               "Global: --simd=scalar|popcnt|avx2|avx512 forces the bit-"
               "kernel\n"
               "dispatch level (same as NTOM_SIMD; see `list --what=simd`)."
               "\n"
               "Exit codes: 0 ok, 1 runtime or trace error, 2 usage error "
               "(unknown flag, bad value or spec).\n");
  return 2;
}

int cmd_gen(const ntom::flags& opts) {
  const std::string out = opts.get_string("out", "");
  if (out.empty()) return usage();
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));

  ntom::topology_spec spec = opts.get_string("kind", "brite");
  if (opts.get_bool("paper", false) && !spec.has("scale")) {
    spec = spec.with_option("scale", "paper");
  }
  const ntom::topology topo = ntom::make_topology(spec, seed);
  ntom::save_topology_file(topo, out);
  std::printf("wrote %s: %s\n", out.c_str(), topo.describe().c_str());
  return 0;
}

int cmd_list(const ntom::flags& opts) {
  // `list --json [--what=<selector>]` emits the machine-readable
  // catalog; the selector narrows exactly like sweep_cli's --list.
  const std::string what = opts.get_string("what", "");
  if (opts.get_bool("json", false)) {
    std::fputs(ntom::describe_registries_json(what).c_str(), stdout);
  } else {
    std::fputs(ntom::describe_registries(what).c_str(), stdout);
  }
  return 0;
}

int cmd_dot(const ntom::flags& opts) {
  const std::string topo_path = opts.get_string("topo", "");
  const std::string out = opts.get_string("out", "");
  if (topo_path.empty() || out.empty()) return usage();
  const ntom::topology topo = ntom::load_topology_file(topo_path);
  std::ofstream stream(out);
  if (!stream) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  ntom::export_dot(topo, stream);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int cmd_monitor(const ntom::flags& opts) {
  using namespace ntom;
  const std::string topo_path = opts.get_string("topo", "");
  if (topo_path.empty()) return usage();
  const topology topo = load_topology_file(topo_path);
  std::printf("monitoring %s\n", topo.describe().c_str());

  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 11));
  run_config base;
  base.scenario = "random";
  base.scenario_opts.seed = seed;
  base.sim.intervals = 400;
  base.sim.seed = seed + 1;
  const run_config config = run_config_from_flags(opts, base);

  const congestion_model model =
      make_scenario(topo, config.scenario, config.scenario_opts);
  const experiment_data data = run_experiment(topo, model, config.sim);
  const auto result = compute_correlation_complete(topo, data);

  std::printf("equations=%zu rank=%zu identifiable=%.0f%%\n",
              result.equations_used, result.system_rank,
              100.0 * result.estimates.identifiable_fraction());

  // Peer report.
  const auto report = build_peer_report(topo, result.estimates);
  table_printer table({"Peer AS", "links", "estimated", "mean P", "worst P"});
  const std::size_t top = std::min<std::size_t>(report.size(), 12);
  for (std::size_t i = 0; i < top; ++i) {
    const auto& row = report[i];
    table.add_row({std::to_string(row.peer), std::to_string(row.monitored_links),
                   std::to_string(row.estimated_links),
                   format_fixed(row.mean_congestion, 3),
                   format_fixed(row.worst_congestion, 3)});
  }
  std::printf("\nTop congested peers:\n");
  table.print(std::cout);

  // Correlated groups (Fig. 4(d) application).
  const auto groups = find_correlation_groups(topo, result.estimates);
  std::printf("\nObserved correlated link groups: %zu\n", groups.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(groups.size(), 8); ++i) {
    std::printf("  AS %u: links", groups[i].as_number);
    for (const link_id e : groups[i].links) std::printf(" %u", e);
    std::printf("  (excess x%.1f)\n", 1.0 + groups[i].max_excess);
  }

  if (opts.has("links-csv")) {
    std::ofstream stream(opts.get_string("links-csv", ""));
    export_link_estimates_csv(topo, result.estimates, stream);
  }
  if (opts.has("subsets-csv")) {
    std::ofstream stream(opts.get_string("subsets-csv", ""));
    export_subset_estimates_csv(topo, result.estimates, stream);
  }
  return 0;
}

int cmd_capture(const ntom::flags& opts) {
  using namespace ntom;
  const std::string out = opts.get_string("out", "");
  if (out.empty()) return usage();

  run_config base;
  base.topo = opts.get_string("topo", "brite");
  base.topo_seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  base.scenario_opts.seed = base.topo_seed + 10;
  base.sim.seed = base.topo_seed + 20;
  base.sim.intervals = 1000;
  base.capture.path = out;
  base.capture.truth = !opts.get_bool("no-truth", false);
  const run_config config = run_config_from_flags(opts, base);

  // O(chunk) capture: stream the simulation straight into the writer
  // (through the imperfection chain when one is requested), never
  // materializing the run.
  const run_artifacts run = prepare_topology(config);
  const std::unique_ptr<trace_writer> writer =
      make_capture_writer(config, run);
  const imperfection_chain chain(opts.get_string("imperfect", ""));
  std::vector<std::unique_ptr<imperfection_sink>> stages;
  measurement_sink& head = chain.build(*writer, stages);
  stream_experiment(run, config, head);

  std::printf("wrote %s: %llu intervals x %zu paths (%s truth), %llu bytes\n",
              out.c_str(),
              static_cast<unsigned long long>(writer->intervals_written()),
              run.topo().num_paths(),
              config.capture.truth && run.has_truth() ? "with" : "without",
              static_cast<unsigned long long>(writer->bytes_written()));
  return 0;
}

int cmd_replay(const ntom::flags& opts) {
  using namespace ntom;
  const std::string file = opts.get_string("file", "");
  if (file.empty()) return usage();

  run_config base;
  base.scenario = spec("trace").with_option("file", file);
  const std::string imperfect = opts.get_string("imperfect", "");
  if (!imperfect.empty()) {
    base.scenario = base.scenario.with_option("imperfect", imperfect);
  }
  // Reconciled, so a probe policy has already forced streamed execution
  // (the materialized store has no mask plane).
  const run_config config = run_config_from_flags(opts, base);
  const run_artifacts run =
      config.stream.enabled ? prepare_topology(config) : prepare_run(config);
  std::printf("replaying %s: %zu intervals, %s, truth plane %s\n",
              file.c_str(), run.source->intervals(),
              run.topo().describe().c_str(),
              run.has_truth() ? "present (Fig. 3 metrics)"
                              : "absent (observation-only scoring)");
  const std::string provenance = run.source->provenance();
  if (!provenance.empty()) {
    std::printf("provenance: %s\n", provenance.c_str());
  }

  // Estimator list: ';'-separated when a spec carries ',' options,
  // else ','-separated (the shared CLI convention).
  std::vector<estimator_spec> estimators;
  for (const std::string& e : split_spec_list(opts.get_string(
           "estimators", "sparsity,bayes-indep,bayes-corr"))) {
    estimators.emplace_back(e);
  }

  const auto rows = estimator_cells(estimators).eval_all(config, run);
  table_printer table({"Estimator", "Metric", "Value"});
  for (const measurement& m : rows) {
    table.add_row({m.series, m.metric, format_fixed(m.value)});
  }
  std::printf("\n");
  table.print(std::cout);
  return 0;
}

int cmd_serve(const ntom::flags& opts) {
  using namespace ntom;

  service_config cfg;
  cfg.estimator = opts.get_string("estimator", "independence");
  cfg.window_chunks = opts.get_size("window", 16);
  cfg.refit_every = opts.get_size("refit-every", 1);
  tomography_service service(cfg);

  const auto epochs = opts.get_size("epochs", 1);
  const auto readers = opts.get_size("readers", 2);
  const double threshold = opts.get_double("threshold", 0.5);
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));

  // The source: a live simulation, or a captured dataset (--file, which
  // replaces --scenario). Every epoch re-begins on the same topology
  // draw parameters; the regenerated instance exercises the stable-link
  // carry-over.
  run_config base;
  const std::string file = opts.get_string("file", "");
  if (file.empty()) {
    base.topo = opts.get_string("topo", "brite,n=20,hosts=60,paths=120");
    base.scenario = "hotspot_drift";
    base.topo_seed = seed;
    base.sim.intervals = 2000;
  } else {
    base.scenario = spec("trace").with_option("file", file);
  }
  base.stream.enabled = true;
  const run_config flagged = run_config_from_flags(opts, base);
  if (!file.empty() && !(flagged.scenario == base.scenario)) {
    throw flag_error("--scenario and --file are exclusive");
  }

  // Concurrent read side: each reader hammers snapshot() while ingest
  // runs, verifying every snapshot it sees (a torn window would fail
  // verify() — the RCU publish makes that impossible by construction).
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> pool;
  pool.reserve(readers);
  for (std::size_t r = 0; r < readers; ++r) {
    pool.emplace_back([&] {
      std::uint64_t local = 0;
      while (!done.load(std::memory_order_acquire)) {
        const std::shared_ptr<const service_snapshot> snap =
            service.snapshot();
        if (snap != nullptr) {
          if (!snap->verify()) torn.fetch_add(1, std::memory_order_relaxed);
          (void)snap->congested_links(threshold);
          (void)snap->confidence();
          ++local;
        }
      }
      queries.fetch_add(local, std::memory_order_relaxed);
    });
  }

  // A failed epoch (say, an unreadable trace) must stop the readers
  // before the error propagates: a joinable std::thread terminates.
  const auto stop_readers = [&] {
    done.store(true, std::memory_order_release);
    for (std::thread& t : pool) t.join();
  };
  const auto start = std::chrono::steady_clock::now();
  try {
    for (std::size_t e = 0; e < epochs; ++e) {
      run_config config = flagged;
      config.scenario_opts.seed = seed + 10 + e;
      config.sim.seed = seed + 20 + e;
      const run_artifacts run = prepare_topology(config);
      service.begin_epoch(run.topo_ptr);
      service_ingest_sink sink(service);
      stream_experiment(run, config, sink);
    }
  } catch (...) {
    stop_readers();
    throw;
  }
  stop_readers();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const std::shared_ptr<const service_snapshot> snap = service.snapshot();
  const service_stats& stats = service.stats();
  std::printf(
      "served %llu chunks (%llu retired) over %llu epoch(s), %llu refits\n",
      static_cast<unsigned long long>(stats.chunks_ingested.load()),
      static_cast<unsigned long long>(stats.chunks_retired.load()),
      static_cast<unsigned long long>(stats.epochs.load()),
      static_cast<unsigned long long>(stats.refits.load()));
  std::printf(
      "final snapshot: epoch %llu version %llu, window %zu chunks / %zu "
      "intervals [%zu, %zu), confidence %.3f\n",
      static_cast<unsigned long long>(snap->epoch()),
      static_cast<unsigned long long>(snap->version()),
      snap->window_chunks(), snap->window_intervals(),
      snap->first_interval(), snap->end_interval(), snap->confidence());
  const bitvec congested = snap->congested_links(threshold);
  std::printf("links with P(congested) >= %.2f: %zu of %zu\n", threshold,
              congested.count(), snap->topo().num_links());
  std::printf(
      "%zu readers: %llu snapshot queries (%.0f queries/sec), %llu torn\n",
      readers, static_cast<unsigned long long>(queries.load()),
      seconds > 0.0 ? static_cast<double>(queries.load()) / seconds : 0.0,
      static_cast<unsigned long long>(torn.load()));
  return torn.load() == 0 ? 0 : 1;
}

int cmd_import(const ntom::flags& opts) {
  using namespace ntom;
  const std::string in = opts.get_string("in", "");
  const std::string out = opts.get_string("out", "");
  if (in.empty() || out.empty()) return usage();

  import_options options;
  options.loss_threshold = opts.get_double("threshold", 0.05);
  topology topo;
  if (opts.has("topo")) {
    topo = load_topology_file(opts.get_string("topo", ""));
    options.topo = &topo;
  }
  const import_result result = import_path_loss_file(in, out, options);
  std::printf(
      "imported %s -> %s: %zu paths x %zu intervals, %zu congested "
      "path-intervals (threshold %.3f)\n",
      in.c_str(), out.c_str(), result.paths, result.intervals,
      result.congested_observations, options.loss_threshold);
  return 0;
}

void print_corpus_stat(const ntom::corpus_file_stat& s) {
  std::printf(
      "%s: %llu intervals / %llu frames, %llu bytes "
      "(%.2f B/interval, compression x%.2f)%s%s\n",
      s.path.c_str(), static_cast<unsigned long long>(s.intervals),
      static_cast<unsigned long long>(s.frames),
      static_cast<unsigned long long>(s.file_bytes), s.bytes_per_interval(),
      s.compression(), s.has_truth ? ", truth" : "",
      s.has_mask ? ", mask" : "");
  for (std::size_t c = 0; c < s.by_codec.size(); ++c) {
    const ntom::corpus_codec_totals& t = s.by_codec[c];
    if (t.sections == 0) continue;
    std::printf("  %-8s %6llu sections  %10llu -> %llu bytes\n",
                ntom::trace_codec::codec_name(static_cast<std::uint8_t>(c)),
                static_cast<unsigned long long>(t.sections),
                static_cast<unsigned long long>(t.decoded_bytes),
                static_cast<unsigned long long>(t.encoded_bytes));
  }
}

int cmd_corpus(const ntom::flags& opts) {
  using namespace ntom;
  const std::vector<std::string>& pos = opts.positional();
  // main hands flags argv+1, and flags skips its own argv[0] ("corpus"),
  // so the first positional is already the sub-verb.
  if (pos.empty()) return usage();
  const std::string verb = pos[0];
  const std::vector<std::string> args(pos.begin() + 1, pos.end());

  if (verb == "stat") {
    if (args.empty()) return usage();
    std::uint64_t intervals = 0;
    std::uint64_t bytes = 0;
    std::uint64_t decoded = 0;
    std::uint64_t encoded = 0;
    std::size_t files = 0;
    for (const std::string& arg : args) {
      std::vector<std::string> paths;
      if (std::filesystem::is_directory(arg)) {
        paths = list_corpus_files(arg);
      } else {
        paths.push_back(arg);
      }
      for (const std::string& path : paths) {
        const corpus_file_stat s = stat_trace_file(path);
        print_corpus_stat(s);
        intervals += s.intervals;
        bytes += s.file_bytes;
        decoded += s.decoded_bytes;
        encoded += s.encoded_bytes;
        ++files;
      }
    }
    if (files > 1) {
      std::printf(
          "total: %zu files, %llu intervals, %llu bytes "
          "(%.2f B/interval, compression x%.2f)\n",
          files, static_cast<unsigned long long>(intervals),
          static_cast<unsigned long long>(bytes),
          intervals > 0 ? static_cast<double>(bytes) /
                              static_cast<double>(intervals)
                        : 0.0,
          encoded > 0 ? static_cast<double>(decoded) /
                            static_cast<double>(encoded)
                      : 1.0);
    }
    return 0;
  }
  if (verb == "merge") {
    const std::string out = opts.get_string("out", "");
    if (out.empty() || args.empty()) return usage();
    const std::uint64_t total = merge_traces(args, out);
    print_corpus_stat(stat_trace_file(out));
    std::printf("merged %zu files, %llu intervals -> %s\n", args.size(),
                static_cast<unsigned long long>(total), out.c_str());
    return 0;
  }
  if (verb == "split") {
    if (args.size() != 1) return usage();
    const auto parts = opts.get_size("parts", 2);
    const std::vector<std::string> paths = split_trace(args[0], parts);
    for (const std::string& path : paths) {
      print_corpus_stat(stat_trace_file(path));
    }
    return 0;
  }
  if (verb == "index") {
    const std::string dir = args.empty() ? std::string(".") : args[0];
    const std::vector<corpus_file_stat> stats = write_corpus_manifest(dir);
    std::uint64_t intervals = 0;
    for (const corpus_file_stat& s : stats) intervals += s.intervals;
    std::printf("wrote %s/corpus.json: %zu files, %llu intervals\n",
                dir.c_str(), stats.size(),
                static_cast<unsigned long long>(intervals));
    return 0;
  }
  return usage();
}

/// One ntom_cli verb: its name, the flags it reads (every verb also
/// takes --simd) and its body.
struct cli_verb {
  const char* name;
  std::vector<std::string> flags;
  int (*run)(const ntom::flags&);
};

const cli_verb kVerbs[] = {
    {"gen", {"kind", "out", "seed", "paper"}, cmd_gen},
    {"dot", {"topo", "out"}, cmd_dot},
    {"monitor",
     {"topo", "seed", "links-csv", "subsets-csv", "scenario", "intervals",
      "nonstationary", "phase-length"},
     cmd_monitor},
    {"capture",
     {"out", "topo", "seed", "no-truth", "imperfect", "scenario", "intervals",
      "packets", "oracle"},
     cmd_capture},
    {"replay",
     {"file", "estimators", "imperfect", "streamed", "chunk", "policy",
      "partition", "partition-max-links"},
     cmd_replay},
    {"import", {"in", "out", "topo", "threshold"}, cmd_import},
    {"corpus", {"out", "parts"}, cmd_corpus},
    {"serve",
     {"file", "topo", "seed", "window", "estimator", "refit-every", "epochs",
      "readers", "threshold", "scenario", "intervals", "chunk", "policy"},
     cmd_serve},
    {"list", {"json", "what"}, cmd_list},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  for (const cli_verb& v : kVerbs) {
    if (std::string(argv[1]) != v.name) continue;
    std::vector<std::string> known = v.flags;
    known.emplace_back("simd");
    // argv + 1: flags skips its argv[0], which is then the verb.
    return ntom::run_cli(argc - 1, argv + 1, known,
                         [&v](const ntom::flags& opts) {
                           // Forces the kernel dispatch level.
                           if (opts.has("simd") &&
                               !ntom::simd::apply_level_flag(
                                   opts.get_string("simd", ""))) {
                             return 2;
                           }
                           return v.run(opts);
                         });
  }
  return usage();
}
