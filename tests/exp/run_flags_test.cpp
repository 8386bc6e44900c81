// run_config_from_flags: the shared run flags overlay a caller's base
// run_config field by field, and bad specs fail as spec_error.
#include <gtest/gtest.h>

#include <vector>

#include "ntom/exp/runner.hpp"
#include "ntom/util/flags.hpp"
#include "ntom/util/spec.hpp"

namespace ntom {
namespace {

flags make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return flags(static_cast<int>(argv.size()), argv.data());
}

/// A base whose every run-flag field differs from the defaults.
run_config custom_base() {
  run_config base;
  base.topo = "toy";
  base.topo_seed = 5;
  base.scenario = "no_independence";
  base.scenario_opts.seed = 6;
  base.scenario_opts.nonstationary = true;
  base.scenario_opts.phase_length = 30;
  base.scenario_opts.congestable_fraction = 0.2;
  base.sim.intervals = 90;
  base.sim.packets_per_path = 70;
  base.sim.oracle_monitor = true;
  base.stream.enabled = true;
  base.stream.chunk_intervals = 9;
  base.plan.policy = "uniform,frac=0.5";
  base.part.mode = partition_mode::bicomp;
  base.part.max_cell_links = 33;
  return base;
}

TEST(RunConfigFromFlagsTest, AbsentFlagKeepsTheBaseValue) {
  const run_config c = run_config_from_flags(make({}), custom_base());
  EXPECT_EQ(c.topo.name(), "toy");
  EXPECT_EQ(c.topo_seed, 5u);
  EXPECT_EQ(c.scenario.name(), "no_independence");
  EXPECT_EQ(c.scenario_opts.seed, 6u);
  EXPECT_TRUE(c.scenario_opts.nonstationary);
  EXPECT_EQ(c.scenario_opts.phase_length, 30u);
  EXPECT_DOUBLE_EQ(c.scenario_opts.congestable_fraction, 0.2);
  EXPECT_EQ(c.sim.intervals, 90u);
  EXPECT_EQ(c.sim.packets_per_path, 70u);
  EXPECT_TRUE(c.sim.oracle_monitor);
  EXPECT_TRUE(c.stream.enabled);
  EXPECT_EQ(c.stream.chunk_intervals, 9u);
  EXPECT_EQ(c.plan.policy, "uniform,frac=0.5");
  EXPECT_EQ(c.part.mode, partition_mode::bicomp);
  EXPECT_EQ(c.part.max_cell_links, 33u);
}

TEST(RunConfigFromFlagsTest, EachRunFlagLandsInItsField) {
  const run_config c = run_config_from_flags(
      make({"--scenario=srlg", "--intervals=120", "--packets=40",
            "--oracle", "--nonstationary", "--phase-length=25",
            "--fraction=0.3", "--streamed", "--chunk=11",
            "--policy=round_robin,frac=0.25", "--partition=components",
            "--partition-max-links=64"}),
      run_config{});
  EXPECT_EQ(c.scenario.name(), "srlg");
  EXPECT_EQ(c.sim.intervals, 120u);
  EXPECT_EQ(c.sim.packets_per_path, 40u);
  EXPECT_TRUE(c.sim.oracle_monitor);
  EXPECT_TRUE(c.scenario_opts.nonstationary);
  EXPECT_EQ(c.scenario_opts.phase_length, 25u);
  EXPECT_DOUBLE_EQ(c.scenario_opts.congestable_fraction, 0.3);
  EXPECT_TRUE(c.stream.enabled);
  EXPECT_EQ(c.stream.chunk_intervals, 11u);
  EXPECT_EQ(c.plan.policy, "round_robin,frac=0.25");
  EXPECT_EQ(c.part.mode, partition_mode::components);
  EXPECT_EQ(c.part.max_cell_links, 64u);
}

TEST(RunConfigFromFlagsTest, ResultIsReconciled) {
  // 120 intervals in phases of 25 need 5 pre-drawn phases, and a policy
  // forces streamed execution.
  const run_config c = run_config_from_flags(
      make({"--intervals=120", "--nonstationary", "--phase-length=25",
            "--policy=uniform,frac=0.5"}),
      run_config{});
  EXPECT_EQ(c.scenario_opts.num_phases, 5u);
  EXPECT_TRUE(c.stream.enabled);
}

TEST(RunConfigFromFlagsTest, BadSpecsThrowSpecError) {
  const run_config base;
  EXPECT_THROW((void)run_config_from_flags(make({"--partition=bogus"}), base),
               spec_error);
  EXPECT_THROW((void)run_config_from_flags(make({"--policy=nosuch"}), base),
               spec_error);
  EXPECT_THROW((void)run_config_from_flags(make({"--phase-length=0"}), base),
               spec_error);
}

TEST(RunConfigFromFlagsTest, BadValuesThrowFlagError) {
  const run_config base;
  EXPECT_THROW((void)run_config_from_flags(make({"--intervals=-5"}), base),
               flag_error);
  EXPECT_THROW((void)run_config_from_flags(make({"--streamed=maybe"}), base),
               flag_error);
}

TEST(PaperScaleFromFlagsTest, AcceptsOnlySmallOrPaper) {
  EXPECT_FALSE(paper_scale_from_flags(make({})));
  EXPECT_FALSE(paper_scale_from_flags(make({"--scale=small"})));
  EXPECT_TRUE(paper_scale_from_flags(make({"--scale=paper"})));
  EXPECT_THROW((void)paper_scale_from_flags(make({"--scale=papr"})),
               flag_error);
}

}  // namespace
}  // namespace ntom
