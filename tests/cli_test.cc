// Tests for the avt_cli command layer (driven in-process through
// cli_commands.h; stdout/stderr captured via temp files).

#include "cli_commands.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

namespace avt {
namespace cli {
namespace {

class CliTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    auto path =
        std::filesystem::temp_directory_path() / ("avt_cli_" + name);
    created_.push_back(path.string());
    return path.string();
  }

  // A scratch directory (checkpoint dirs), removed recursively. Starts
  // absent so `stream --checkpoint-dir` sees a fresh run.
  std::string TempDir(const std::string& name) {
    std::string path = TempPath(name);
    std::filesystem::remove_all(path);
    dirs_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const std::string& path : dirs_) {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
    for (const std::string& path : created_) std::remove(path.c_str());
  }

  // Runs a command capturing stdout/stderr into strings.
  int Run(const std::vector<std::string>& args, std::string* out_text,
          std::string* err_text = nullptr) {
    std::vector<std::string> full = {"avt_cli"};
    full.insert(full.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& s : full) argv.push_back(s.data());

    std::string out_path = TempPath("out.txt");
    std::string err_path = TempPath("err.txt");
    FILE* out = fopen(out_path.c_str(), "w+");
    FILE* err = fopen(err_path.c_str(), "w+");
    int rc = RunCli(static_cast<int>(argv.size()), argv.data(), out, err);
    fclose(out);
    fclose(err);
    if (out_text) *out_text = Slurp(out_path);
    if (err_text) *err_text = Slurp(err_path);
    return rc;
  }

  static std::string Slurp(const std::string& path) {
    std::ifstream file(path);
    std::stringstream buffer;
    buffer << file.rdbuf();
    return buffer.str();
  }

  std::vector<std::string> created_;
  std::vector<std::string> dirs_;
};

// The machine-diffable last line of `stream` output ("final t=... "
// followed by vertices and the sorted anchor set) — the quantity the
// crash-recovery invariant promises is identical after a resume.
std::string FinalLine(const std::string& text) {
  std::istringstream stream(text);
  std::string line, final_line;
  while (std::getline(stream, line)) {
    if (line.rfind("final ", 0) == 0) final_line = line;
  }
  return final_line;
}

TEST_F(CliTest, NoArgsPrintsUsage) {
  std::string out, err;
  EXPECT_EQ(Run({}, &out, &err), 2);
  EXPECT_NE(err.find("usage:"), std::string::npos);
}

TEST_F(CliTest, HelpSucceeds) {
  std::string out;
  EXPECT_EQ(Run({"help"}, &out), 0);
  EXPECT_NE(out.find("anchors"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  std::string out, err;
  EXPECT_EQ(Run({"frobnicate"}, &out, &err), 2);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, GenThenStats) {
  std::string graph_path = TempPath("g.txt");
  std::string out;
  ASSERT_EQ(Run({"gen", "--model=er", "--n=200", "--avg-degree=5",
                 "--out=" + graph_path},
                &out),
            0);
  EXPECT_NE(out.find("wrote"), std::string::npos);

  ASSERT_EQ(Run({"stats", graph_path}, &out), 0);
  EXPECT_NE(out.find("vertices            200"), std::string::npos);
  EXPECT_NE(out.find("average degree"), std::string::npos);
  EXPECT_NE(out.find("degeneracy"), std::string::npos);
}

TEST_F(CliTest, GenRejectsUnknownModel) {
  std::string out, err;
  EXPECT_EQ(Run({"gen", "--model=nope", "--out=" + TempPath("x.txt")},
                &out, &err),
            2);
  EXPECT_NE(err.find("unknown --model"), std::string::npos);
}

TEST_F(CliTest, GenRequiresOut) {
  std::string out, err;
  EXPECT_EQ(Run({"gen", "--model=er"}, &out, &err), 2);
  EXPECT_NE(err.find("--out"), std::string::npos);
}

TEST_F(CliTest, CoreProfileAndSpecificK) {
  std::string graph_path = TempPath("core.txt");
  std::string out;
  ASSERT_EQ(Run({"gen", "--model=ba", "--n=300", "--avg-degree=6",
                 "--out=" + graph_path},
                &out),
            0);
  ASSERT_EQ(Run({"core", graph_path}, &out), 0);
  EXPECT_NE(out.find("degeneracy"), std::string::npos);
  EXPECT_NE(out.find("k=1"), std::string::npos);

  ASSERT_EQ(Run({"core", graph_path, "--k=3"}, &out), 0);
  EXPECT_NE(out.find("|C_3|"), std::string::npos);
}

TEST_F(CliTest, AnchorsAllAlgorithms) {
  std::string graph_path = TempPath("anchors.txt");
  std::string out;
  ASSERT_EQ(Run({"gen", "--model=chung-lu", "--n=250", "--avg-degree=6",
                 "--out=" + graph_path},
                &out),
            0);
  for (const char* algo : {"greedy", "olak", "rcm"}) {
    ASSERT_EQ(Run({"anchors", graph_path, "--k=3", "--l=3",
                   std::string("--algo=") + algo},
                  &out),
              0)
        << algo;
    EXPECT_NE(out.find("anchors"), std::string::npos) << algo;
    EXPECT_NE(out.find("|F| ="), std::string::npos) << algo;
  }
}

TEST_F(CliTest, EveryCommandRejectsFlagsItDoesNotRead) {
  // A flag a subcommand does not read — a typo, or a retired knob —
  // exits 2 before the command runs, instead of being silently ignored.
  const std::vector<std::string> track = {"track", "--dataset=CollegeMsg",
                                          "--t=3"};
  using Case = std::pair<std::vector<std::string>, std::string>;
  const std::vector<Case> cases = {
      {{"gen", "--out=" + TempPath("never.txt")}, "--bogus=1"},
      {{"stats", "g.txt"}, "--bogus=1"},
      {{"core", "g.txt"}, "--bogus=1"},
      {{"anchors", "g.txt"}, "--bogus=1"},
      {track, "--bogus=1"},
      {{"stream", "--source=gen", "--n=200", "--t=2"}, "--bogus=1"},
      {{"quarantine", "qdir"}, "--bogus=1"},
      {{"convert", "log.txt"}, "--bogus=1"},
      {track, "--csr=none"},
      {track, "--theads=2"},
      {track, "--threads=2"},
      {{"anchors", "g.txt"}, "--threads=2"},
      {track, "--memo-policy=none"},
      {track, "--memo-budget=4096"},
  };
  for (const auto& [base, flag] : cases) {
    std::vector<std::string> args = base;
    args.push_back(flag);
    std::string out, err;
    EXPECT_EQ(Run(args, &out, &err), 2) << base[0] << " " << flag;
    const std::string name = flag.substr(0, flag.find('='));
    EXPECT_NE(err.find("unknown flag " + name), std::string::npos)
        << base[0] << ": " << err;
    EXPECT_EQ(out, "") << base[0] << " " << flag;
  }
}

TEST_F(CliTest, AnchorsRejectsBadAlgo) {
  std::string graph_path = TempPath("bad.txt");
  std::string out, err;
  ASSERT_EQ(Run({"gen", "--model=er", "--n=50", "--avg-degree=4",
                 "--out=" + graph_path},
                &out),
            0);
  EXPECT_EQ(Run({"anchors", graph_path, "--algo=magic"}, &out, &err), 2);
  EXPECT_NE(err.find("unknown --algo"), std::string::npos);
}

TEST_F(CliTest, StatsMissingFileFails) {
  // A missing input file is an IoError; the Status-code exit mapping
  // (2 invalid, 3 not-found, 4 corruption, 5 io) surfaces it as 5.
  std::string out, err;
  EXPECT_EQ(Run({"stats", "/nonexistent/graph.txt"}, &out, &err), 5);
  EXPECT_NE(err.find("error"), std::string::npos);
}

TEST_F(CliTest, TrackOnDatasetReplica) {
  std::string out;
  ASSERT_EQ(Run({"track", "--dataset=CollegeMsg", "--t=4", "--k=3",
                 "--l=3", "--scale=0.3", "--algo=incavt"},
                &out),
            0);
  EXPECT_NE(out.find("followers"), std::string::npos);
  EXPECT_NE(out.find("smoothness"), std::string::npos);
}

TEST_F(CliTest, TrackRequiresSource) {
  std::string out, err;
  EXPECT_EQ(Run({"track", "--t=3"}, &out, &err), 2);
  EXPECT_NE(err.find("--dataset"), std::string::npos);
}

TEST_F(CliTest, ConvertWindowsTemporalLog) {
  // Write a tiny temporal log, convert, and expect snapshot files.
  std::string log_path = TempPath("log.txt");
  {
    std::ofstream file(log_path);
    file << "0 1 0\n1 2 10\n2 3 20\n0 2 30\n1 3 40\n";
  }
  std::string prefix = TempPath("snap");
  std::string out;
  ASSERT_EQ(Run({"convert", log_path, "--t=2", "--window=25",
                 "--out-prefix=" + prefix},
                &out),
            0);
  EXPECT_NE(out.find("wrote"), std::string::npos);
  for (int t = 0; t < 2; ++t) {
    std::string path = prefix + "_" + std::to_string(t) + ".txt";
    created_.push_back(path);
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
  }
}

// --- binary edge log: convert + stream --source=binlog ------------------

// Writes a sorted synthetic temporal log with enough events to give
// every window a few deltas.
static void WriteTemporalFixture(const std::string& path) {
  std::ofstream file(path);
  for (int i = 0; i < 120; ++i) {
    int u = i % 7;
    int v = (i + 1 + i / 7) % 9;
    if (u == v) v = (v + 1) % 9;
    file << u << " " << v << " " << i * 3 << "\n";
  }
}

TEST_F(CliTest, ConvertToBinlogRoundTripsThroughStream) {
  // `convert <text> <binlog>` transcodes; streaming either form must
  // land on the same final anchors.
  std::string log_path = TempPath("binlog_src.txt");
  WriteTemporalFixture(log_path);
  std::string binlog_path = TempPath("binlog.avtb");

  std::string out;
  ASSERT_EQ(Run({"convert", log_path, binlog_path, "--t=5", "--window=90"},
                &out),
            0);
  EXPECT_NE(out.find("wrote"), std::string::npos);
  EXPECT_NE(out.find("deltas"), std::string::npos);
  ASSERT_TRUE(std::filesystem::exists(binlog_path));

  std::string from_text, from_binlog;
  ASSERT_EQ(Run({"stream", "--source=file", "--temporal=" + log_path, "--t=5",
                 "--window=90", "--k=3", "--l=2"},
                &from_text),
            0);
  ASSERT_EQ(Run({"stream", "--source=binlog", "--binlog=" + binlog_path,
                 "--k=3", "--l=2"},
                &from_binlog),
            0);
  ASSERT_NE(FinalLine(from_text), "");
  EXPECT_EQ(FinalLine(from_binlog), FinalLine(from_text));
}

TEST_F(CliTest, FlagsUsedByScriptsAndReadmeStillRun) {
  // Every flag the README examples and scripts/*.sh pass, on tiny
  // inputs: none may trip the unknown-flag check.
  const std::string graph = TempPath("readme_g.txt");
  const std::string log = TempPath("readme_log.txt");
  const std::string binlog = TempPath("readme_log.avtb");
  const std::string ckpt = TempDir("readme_ckpt");
  const std::string drill = TempDir("readme_drill");
  const std::string qdir = TempDir("readme_qdir");
  WriteTemporalFixture(log);
  const std::vector<std::string> gen_stream = {
      "stream", "--source=gen", "--n=400", "--t=6", "--k=3", "--l=5",
      "--churn-min=10", "--churn-max=20", "--seed=3"};
  auto with = [&](std::vector<std::string> extra) {
    std::vector<std::string> args = gen_stream;
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
  };
  const std::vector<std::vector<std::string>> runs = {
      {"gen", "--model=chung-lu", "--n=300", "--avg-degree=6", "--seed=7",
       "--out=" + graph},
      {"stats", graph},
      {"core", graph, "--k=3", "--list"},
      {"anchors", graph, "--k=3", "--l=5"},
      {"track", "--dataset=eu-core", "--t=3", "--k=3", "--l=3",
       "--scale=0.05", "--seed=7"},
      gen_stream,
      with({"--checkpoint-dir=" + ckpt, "--checkpoint-every=2",
            "--fsync=never"}),
      with({"--checkpoint-dir=" + ckpt, "--checkpoint-every=2",
            "--fsync=never", "--resume"}),
      with({"--audit-every=2", "--poison-rate=0.3", "--poison-seed=99",
            "--quarantine-dir=" + qdir}),
      {"quarantine", qdir},
      with({"--checkpoint-dir=" + drill, "--checkpoint-every=2",
            "--audit-every=2", "--corrupt-state-after=4"}),
      {"stream", "--source=file", "--temporal=" + log, "--t=5", "--window=90",
       "--k=3", "--l=5", "--coalesce-window", "2"},
      {"convert", log, binlog, "--t=5", "--window=90"},
      {"stream", "--source=binlog", "--binlog=" + binlog, "--k=3", "--l=5",
       "--batch=2"},
  };
  for (const std::vector<std::string>& args : runs) {
    std::string out, err;
    const int rc = Run(args, &out, &err);
    // 6: completed but degraded (the poison and corruption drills).
    EXPECT_TRUE(rc == 0 || rc == 6) << args[0] << " rc=" << rc << ": " << err;
    EXPECT_EQ(err.find("unknown flag"), std::string::npos) << err;
  }
}

TEST_F(CliTest, ConvertBinlogRejectsUnsortedEvents) {
  std::string log_path = TempPath("unsorted.txt");
  {
    std::ofstream file(log_path);
    file << "0 1 50\n1 2 10\n";
  }
  std::string out, err;
  EXPECT_EQ(Run({"convert", log_path, TempPath("unsorted.avtb"), "--t=3",
                 "--window=30"},
                &out, &err),
            2);
  EXPECT_NE(err.find("sorted"), std::string::npos);
}

TEST_F(CliTest, ConvertBinlogMalformedInputIsCorruption) {
  std::string log_path = TempPath("garbled.txt");
  {
    std::ofstream file(log_path);
    file << "0 1 10\nnot an event line\n";
  }
  std::string out, err;
  EXPECT_EQ(Run({"convert", log_path, TempPath("garbled.avtb"), "--t=3",
                 "--window=30"},
                &out, &err),
            4);
}

TEST_F(CliTest, StreamBinlogRequiresTheFlag) {
  std::string out, err;
  EXPECT_EQ(Run({"stream", "--source=binlog", "--k=3", "--l=2"}, &out, &err),
            2);
  EXPECT_NE(err.find("--binlog"), std::string::npos);
}

TEST_F(CliTest, StreamBinlogMissingFileIsNotFound) {
  std::string out, err;
  EXPECT_EQ(Run({"stream", "--source=binlog",
                 "--binlog=/nonexistent/log.avtb", "--k=3", "--l=2"},
                &out, &err),
            3);
}

TEST_F(CliTest, StreamBinlogCorruptFileIsCorruption) {
  std::string bogus = TempPath("bogus.avtb");
  {
    std::ofstream file(bogus, std::ios::binary);
    file << std::string(128, 'z');
  }
  std::string out, err;
  EXPECT_EQ(Run({"stream", "--source=binlog", "--binlog=" + bogus, "--k=3",
                 "--l=2"},
                &out, &err),
            4);
}

TEST_F(CliTest, StreamMetaFlagsMustComeTogether) {
  std::string log_path = TempPath("meta_partial.txt");
  WriteTemporalFixture(log_path);
  std::string out, err;
  EXPECT_EQ(Run({"stream", "--source=file", "--temporal=" + log_path, "--t=4",
                 "--window=90", "--k=3", "--l=2", "--meta-vertices=9"},
                &out, &err),
            2);
  EXPECT_NE(err.find("--meta-tmin"), std::string::npos);
}

TEST_F(CliTest, StreamMetaFlagsSkipTheScanAndMatch) {
  // Handing the scanner's own metadata back via flags must not change
  // the stream (the single-pass open is an optimization, not a fork).
  std::string log_path = TempPath("meta_full.txt");
  WriteTemporalFixture(log_path);
  std::string scanned, handed;
  ASSERT_EQ(Run({"stream", "--source=file", "--temporal=" + log_path, "--t=4",
                 "--window=90", "--k=3", "--l=2"},
                &scanned),
            0);
  // Fixture: ts spans 0..357, max vertex id 8 -> universe 9.
  ASSERT_EQ(Run({"stream", "--source=file", "--temporal=" + log_path, "--t=4",
                 "--window=90", "--k=3", "--l=2", "--meta-tmin=0",
                 "--meta-tmax=357", "--meta-vertices=9"},
                &handed),
            0);
  ASSERT_NE(FinalLine(scanned), "");
  EXPECT_EQ(FinalLine(handed), FinalLine(scanned));
}

// --- stream command ----------------------------------------------------

TEST_F(CliTest, HelpMentionsStreamCommand) {
  std::string out;
  ASSERT_EQ(Run({"help"}, &out), 0);
  EXPECT_NE(out.find("stream"), std::string::npos);
  EXPECT_NE(out.find("--coalesce-window"), std::string::npos);
}

TEST_F(CliTest, StreamGeneratedChurnWorkload) {
  std::string out;
  ASSERT_EQ(Run({"stream", "--source=gen", "--n=300", "--t=5", "--k=3",
                 "--l=3", "--churn-min=20", "--churn-max=40"},
                &out),
            0);
  EXPECT_NE(out.find("source churn-gen: 5 snapshots"), std::string::npos);
  EXPECT_NE(out.find("anchor stability"), std::string::npos);
}

TEST_F(CliTest, StreamRejectsBadBatch) {
  std::string out, err;
  for (const char* bad : {"--batch=0", "--batch=-2", "--batch=huge"}) {
    EXPECT_EQ(Run({"stream", "--source=gen", "--n=100", "--t=3", "--k=3",
                   "--l=2", bad},
                  &out, &err),
              2)
        << bad;
    EXPECT_NE(err.find("--batch must be a positive integer"),
              std::string::npos)
        << bad;
  }
}

TEST_F(CliTest, IntegerFlagsRejectUnparsableAndOutOfRangeValues) {
  // --k=abc used to fall back to the default and --l=-1 used to wrap to
  // a 4294967295-anchor budget; both now exit 2 naming the flag.
  std::string graph_path = TempPath("int_flags.txt");
  std::string out, err;
  ASSERT_EQ(Run({"gen", "--model=chung-lu", "--n=120", "--avg-degree=6",
                 "--out=" + graph_path},
                &out),
            0);
  const std::vector<std::vector<std::string>> commands = {
      {"stream", "--source=gen", "--n=300", "--t=3"},
      {"track", "--dataset=eu-core", "--t=3", "--scale=0.05"},
      {"anchors", graph_path},
  };
  for (const std::vector<std::string>& command : commands) {
    for (const std::string bad : {"--k=abc", "--l=-1"}) {
      std::vector<std::string> args = command;
      args.push_back(bad);
      EXPECT_EQ(Run(args, &out, &err), 2) << command[0] << " " << bad;
      const std::string flag = bad.substr(0, bad.find('='));
      EXPECT_NE(err.find("error: " + flag + " must be a non-negative "
                         "integer"),
                std::string::npos)
          << command[0] << " " << bad << ": " << err;
    }
  }
}

TEST_F(CliTest, GeneratorAndFaultFlagsRejectUnparsableAndOutOfRangeValues) {
  // --seed=abc used to run seed 42 and --churn-min=-1 wrapped to
  // 4294967295 and never finished; every numeric flag now exits 2
  // naming itself.
  std::string out, err;
  const std::vector<std::string> stream = {"stream", "--source=gen",
                                           "--n=200", "--t=2"};
  for (const std::string bad :
       {"--seed=abc", "--churn-min=-1", "--churn-max=1.5", "--max-degree=0",
        "--avg-degree=-3", "--alpha=1", "--scale=0", "--fault-rate=x",
        "--poison-rate=1", "--fault-seed=-4", "--audit-seed=9e99",
        "--fault-corrupt-after=-2", "--corrupt-state-after=-1"}) {
    std::vector<std::string> args = stream;
    args.push_back(bad);
    EXPECT_EQ(Run(args, &out, &err), 2) << bad;
    const std::string flag = bad.substr(0, bad.find('='));
    EXPECT_NE(err.find("error: " + flag + " must be"), std::string::npos)
        << bad << ": " << err;
  }
  EXPECT_EQ(Run({"stream", "--source=gen", "--n=200", "--t=2",
                 "--churn-min=9", "--churn-max=3"},
                &out, &err),
            2);
  EXPECT_NE(err.find("--churn-min"), std::string::npos) << err;

  const std::string graph_path = TempPath("bad_gen_flags.txt");
  for (const std::string bad :
       {"--seed=abc", "--communities=0", "--beta=2", "--p-intra=-0.1"}) {
    EXPECT_EQ(Run({"gen", "--model=sbm", "--n=60", "--out=" + graph_path,
                   bad},
                  &out, &err),
              2)
        << bad;
    const std::string flag = bad.substr(0, bad.find('='));
    EXPECT_NE(err.find("error: " + flag + " must be"), std::string::npos)
        << bad << ": " << err;
  }
  EXPECT_EQ(Run({"track", "--dataset=eu-core", "--t=2", "--scale=abc"}, &out,
                &err),
            2);
  EXPECT_NE(err.find("error: --scale must be"), std::string::npos) << err;
}

TEST_F(CliTest, StreamBatchMergesTransactions) {
  // T=5 snapshots = G_0 + 4 deltas; --batch=2 merges them into 2
  // transactions, so the engine reports 3 snapshots (batch boundaries).
  std::string out;
  ASSERT_EQ(Run({"stream", "--source=gen", "--n=300", "--t=5", "--k=3",
                 "--l=3", "--churn-min=20", "--churn-max=40",
                 "--algo=incavt", "--batch=2"},
                &out),
            0);
  EXPECT_NE(out.find("source churn-gen: 3 snapshots"), std::string::npos)
      << out;
}

TEST_F(CliTest, HelpMentionsBatchKnob) {
  std::string out;
  ASSERT_EQ(Run({"help"}, &out), 0);
  EXPECT_NE(out.find("--batch"), std::string::npos);
}

TEST_F(CliTest, StreamTemporalFileMatchesMaterializedTrack) {
  // The same temporal log driven through `track --temporal` (batch
  // load, WindowSnapshots, SequenceSource) and `stream --source=file`
  // (StreamingEdgeFileSource) must report identical per-snapshot
  // followers / anchored-core / candidates columns.
  std::string log_path = TempPath("stream_log.txt");
  {
    std::ofstream file(log_path);
    // 30 sorted events over a dense little community.
    for (int i = 0; i < 30; ++i) {
      int u = i % 5;
      int v = (i + 1 + i / 5) % 6;
      if (u == v) v = (v + 1) % 6;
      file << u << ' ' << v << ' ' << i * 3 << '\n';
    }
  }
  // Keeps the first `columns` whitespace/pipe-separated fields of every
  // numeric table row (dropping the trailing millis column).
  auto result_rows = [](const std::string& text, int columns) {
    std::string kept;
    std::istringstream stream(text);
    for (std::string line; std::getline(stream, line);) {
      if (line.find("ms total") != std::string::npos) continue;
      for (char& c : line) {
        if (c == '|') c = ' ';
      }
      std::istringstream row(line);
      std::string t;
      if (!(row >> t) ||
          t.find_first_not_of("0123456789") != std::string::npos) {
        continue;
      }
      kept += t;
      std::string field;
      for (int i = 1; i < columns && row >> field; ++i) {
        kept += " " + field;
      }
      kept += "\n";
    }
    return kept;
  };
  std::string tracked, streamed;
  ASSERT_EQ(Run({"track", "--temporal=" + log_path, "--t=4", "--window=30",
                 "--k=2", "--l=2", "--algo=incavt"},
                &tracked),
            0);
  ASSERT_EQ(Run({"stream", "--source=file", "--temporal=" + log_path,
                 "--t=4", "--window=30", "--k=2", "--l=2",
                 "--algo=incavt"},
                &streamed),
            0);
  // track rows: t followers anchored_core candidates [millis];
  // stream rows: t vertices followers anchored_core candidates
  // [millis]. The vertices column is constant here (full universe
  // declared up front), so compare after dropping it.
  auto drop_second_column = [](const std::string& rows) {
    std::string kept;
    std::istringstream stream(rows);
    for (std::string line; std::getline(stream, line);) {
      std::istringstream row(line);
      std::string t, vertices, rest;
      row >> t >> vertices;
      std::getline(row, rest);
      kept += t + rest + "\n";
    }
    return kept;
  };
  EXPECT_NE(result_rows(tracked, 4), "");
  EXPECT_EQ(result_rows(tracked, 4),
            drop_second_column(result_rows(streamed, 5)));
}

TEST_F(CliTest, StreamCoalesceWindowOneIsIdentity) {
  // Identical up to wall-clock: strip the trailing millis column and
  // the timing summary line before comparing.
  auto deterministic = [](const std::string& text) {
    std::string kept;
    std::istringstream stream(text);
    for (std::string line; std::getline(stream, line);) {
      if (line.find("ms total") != std::string::npos) continue;
      for (char& c : line) {
        if (c == '|') c = ' ';
      }
      std::istringstream row(line);
      std::string t;
      if (!(row >> t) ||
          t.find_first_not_of("0123456789") != std::string::npos) {
        kept += line + "\n";
        continue;
      }
      std::string vertices, followers, core, candidates;
      row >> vertices >> followers >> core >> candidates;
      kept += t + " " + vertices + " " + followers + " " + core + " " +
              candidates + "\n";
    }
    return kept;
  };
  std::string plain, coalesced;
  ASSERT_EQ(Run({"stream", "--source=gen", "--n=250", "--t=5", "--k=3",
                 "--l=3"},
                &plain),
            0);
  ASSERT_EQ(Run({"stream", "--source=gen", "--n=250", "--t=5", "--k=3",
                 "--l=3", "--coalesce-window=1"},
                &coalesced),
            0);
  EXPECT_EQ(deterministic(plain), deterministic(coalesced));
}

TEST_F(CliTest, StreamCoalesceMergesTransitions) {
  std::string out;
  ASSERT_EQ(Run({"stream", "--source=gen", "--n=250", "--t=7", "--k=3",
                 "--l=3", "--coalesce-window=3"},
                &out),
            0);
  // 6 upstream transitions coalesce into ceil(6/3) = 2, plus G_0.
  EXPECT_NE(out.find("3 snapshots"), std::string::npos);
}

TEST_F(CliTest, StreamRejectsBadFlags) {
  std::string out, err;
  EXPECT_EQ(Run({"stream", "--source=teleport"}, &out, &err), 2);
  EXPECT_NE(err.find("unknown --source"), std::string::npos);

  EXPECT_EQ(Run({"stream", "--source=gen", "--coalesce-window=0"}, &out,
                &err),
            2);
  EXPECT_NE(err.find("--coalesce-window must be a positive integer"),
            std::string::npos);

  EXPECT_EQ(Run({"stream", "--source=file"}, &out, &err), 2);
  EXPECT_NE(err.find("--temporal"), std::string::npos);

  EXPECT_EQ(Run({"stream", "--source=sequence"}, &out, &err), 2);
  EXPECT_NE(err.find("--dataset"), std::string::npos);
}

TEST_F(CliTest, StreamRejectsUnsortedTemporalFile) {
  // An unsorted file is an InvalidArgument: exit 2 under the Status
  // exit-code mapping.
  std::string log_path = TempPath("unsorted_log.txt");
  {
    std::ofstream file(log_path);
    file << "0 1 100\n2 3 50\n";
  }
  std::string out, err;
  EXPECT_EQ(Run({"stream", "--source=file", "--temporal=" + log_path,
                 "--t=3", "--window=30"},
                &out, &err),
            2);
  EXPECT_NE(err.find("not sorted by timestamp"), std::string::npos);
}

TEST_F(CliTest, StreamMissingTemporalFileExitsIoCode) {
  std::string out, err;
  EXPECT_EQ(Run({"stream", "--source=file",
                 "--temporal=/nonexistent/stream.txt", "--t=3"},
                &out, &err),
            5);
  EXPECT_NE(err.find("cannot open"), std::string::npos);
}

// --- stream crash safety -----------------------------------------------

TEST_F(CliTest, HelpMentionsCrashSafetyKnobs) {
  std::string out;
  ASSERT_EQ(Run({"help"}, &out), 0);
  EXPECT_NE(out.find("--checkpoint-dir"), std::string::npos);
  EXPECT_NE(out.find("--resume"), std::string::npos);
  EXPECT_NE(out.find("--fault-rate"), std::string::npos);
  EXPECT_NE(out.find("exit codes"), std::string::npos);
}

TEST_F(CliTest, StreamDurabilityFlagsNeedCheckpointDir) {
  std::string out, err;
  for (const char* orphan :
       {"--resume", "--checkpoint-every=4", "--fsync=record"}) {
    EXPECT_EQ(Run({"stream", "--source=gen", "--n=100", "--t=3", orphan},
                  &out, &err),
              2)
        << orphan;
    EXPECT_NE(err.find("--checkpoint-dir"), std::string::npos) << orphan;
  }
}

TEST_F(CliTest, StreamRejectsBadDurabilityValues) {
  std::string dir = TempDir("bad_durability");
  std::string out, err;
  EXPECT_EQ(Run({"stream", "--source=gen", "--n=100", "--t=3",
                 "--checkpoint-dir=" + dir, "--fsync=sometimes"},
                &out, &err),
            2);
  EXPECT_NE(err.find("unknown --fsync"), std::string::npos);
  EXPECT_EQ(Run({"stream", "--source=gen", "--n=100", "--t=3",
                 "--checkpoint-dir=" + dir, "--checkpoint-every=-1"},
                &out, &err),
            2);
  EXPECT_NE(err.find("--checkpoint-every"), std::string::npos);
  EXPECT_EQ(Run({"stream", "--source=gen", "--n=100", "--t=3",
                 "--fault-rate=1.5"},
                &out, &err),
            2);
  EXPECT_NE(err.find("--fault-rate"), std::string::npos);
}

TEST_F(CliTest, StreamCheckpointedRunMatchesPlainRunAndResumes) {
  // One deterministic generated stream, three ways: plain, with
  // durability armed, and resumed from the completed run's directory.
  // All three must report the identical final anchor set — and the
  // durability directory must hold a WAL plus checkpoints.
  std::vector<std::string> base = {"stream",      "--source=gen",
                                   "--n=250",     "--t=5",
                                   "--k=3",       "--l=3",
                                   "--seed=11",   "--churn-min=20",
                                   "--churn-max=40"};
  std::string plain;
  ASSERT_EQ(Run(base, &plain), 0);
  ASSERT_NE(FinalLine(plain), "");

  std::string dir = TempDir("ckpt_run");
  std::vector<std::string> durable = base;
  durable.push_back("--checkpoint-dir=" + dir);
  durable.push_back("--checkpoint-every=2");
  std::string checkpointed;
  ASSERT_EQ(Run(durable, &checkpointed), 0);
  EXPECT_EQ(FinalLine(checkpointed), FinalLine(plain));
  EXPECT_TRUE(std::filesystem::exists(dir + "/wal.log"));

  // Re-running WITHOUT --resume into the used directory must refuse
  // rather than clobber the log.
  std::string out, err;
  EXPECT_EQ(Run(durable, &out, &err), 2);
  EXPECT_NE(err.find("error"), std::string::npos);

  std::vector<std::string> resumed_args = durable;
  resumed_args.push_back("--resume");
  std::string resumed;
  ASSERT_EQ(Run(resumed_args, &resumed), 0);
  EXPECT_EQ(FinalLine(resumed), FinalLine(plain));
}

TEST_F(CliTest, StreamResumeRejectsMismatchedConfig) {
  std::string dir = TempDir("ckpt_mismatch");
  std::string out, err;
  ASSERT_EQ(Run({"stream", "--source=gen", "--n=200", "--t=4", "--k=3",
                 "--l=3", "--seed=5", "--checkpoint-dir=" + dir},
                &out),
            0);
  // Same directory, different k: the checkpoint fingerprint rejects it.
  EXPECT_EQ(Run({"stream", "--source=gen", "--n=200", "--t=4", "--k=4",
                 "--l=3", "--seed=5", "--checkpoint-dir=" + dir,
                 "--resume"},
                &out, &err),
            2);
  EXPECT_NE(err.find("error"), std::string::npos);
}

TEST_F(CliTest, StreamResumeDetectsCorruptWal) {
  std::string dir = TempDir("ckpt_corrupt");
  std::string out, err;
  ASSERT_EQ(Run({"stream", "--source=gen", "--n=200", "--t=4", "--k=3",
                 "--l=3", "--seed=5", "--checkpoint-dir=" + dir},
                &out),
            0);
  // Flip one byte inside the first WAL frame (past the 8-byte magic):
  // the record CRC catches it and resume exits with the corruption
  // code, never a crash.
  std::string wal_path = dir + "/wal.log";
  {
    std::fstream wal(wal_path,
                     std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(wal.good());
    wal.seekg(0, std::ios::end);
    ASSERT_GT(static_cast<long>(wal.tellg()), 16L);
    wal.seekp(12);
    char byte = 0;
    wal.seekg(12);
    wal.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    wal.seekp(12);
    wal.write(&byte, 1);
  }
  EXPECT_EQ(Run({"stream", "--source=gen", "--n=200", "--t=4", "--k=3",
                 "--l=3", "--seed=5", "--checkpoint-dir=" + dir,
                 "--resume"},
                &out, &err),
            4);
  EXPECT_NE(err.find("error"), std::string::npos);
}

TEST_F(CliTest, StreamFaultInjectionAbsorbedByRetries) {
  // A 40% transient fault rate (high enough to fire on a 4-pull
  // stream), absorbed by the retry decorator: the run succeeds,
  // reports the absorbed faults in its summary, and its final anchors
  // match the fault-free run exactly (transient faults never consume
  // upstream deltas).
  std::vector<std::string> base = {"stream",    "--source=gen", "--n=250",
                                   "--t=5",     "--k=3",        "--l=3",
                                   "--seed=11", "--churn-min=20",
                                   "--churn-max=40"};
  std::string clean;
  ASSERT_EQ(Run(base, &clean), 0);
  std::vector<std::string> faulty = base;
  faulty.push_back("--fault-rate=0.4");
  faulty.push_back("--fault-seed=7");
  std::string absorbed;
  ASSERT_EQ(Run(faulty, &absorbed), 0);
  EXPECT_EQ(FinalLine(absorbed), FinalLine(clean));
  EXPECT_NE(absorbed.find("transient source errors absorbed"),
            std::string::npos)
      << absorbed;
}

TEST_F(CliTest, StreamInjectedCorruptionExitsCorruptionCode) {
  std::string out, err;
  EXPECT_EQ(Run({"stream", "--source=gen", "--n=200", "--t=5", "--k=3",
                 "--l=3", "--fault-corrupt-after=2"},
                &out, &err),
            4);
  EXPECT_NE(err.find("injected"), std::string::npos);
}

// --- stream self-healing -------------------------------------------------

TEST_F(CliTest, HelpMentionsSelfHealingKnobs) {
  std::string out;
  ASSERT_EQ(Run({"help"}, &out), 0);
  EXPECT_NE(out.find("--audit-every"), std::string::npos);
  EXPECT_NE(out.find("--quarantine-dir"), std::string::npos);
  EXPECT_NE(out.find("--breaker"), std::string::npos);
  EXPECT_NE(out.find("--poison-rate"), std::string::npos);
  EXPECT_NE(out.find("quarantine"), std::string::npos);
  EXPECT_NE(out.find("6 completed but degraded"), std::string::npos);
}

TEST_F(CliTest, StreamRejectsBadSelfHealingFlags) {
  std::string out, err;
  EXPECT_EQ(Run({"stream", "--source=gen", "--n=100", "--t=3",
                 "--audit-every=-2"},
                &out, &err),
            2);
  EXPECT_NE(err.find("--audit-every"), std::string::npos);

  EXPECT_EQ(Run({"stream", "--source=gen", "--n=100", "--t=3",
                 "--audit-sample=32"},
                &out, &err),
            2);
  EXPECT_NE(err.find("need --audit-every"), std::string::npos);

  EXPECT_EQ(Run({"stream", "--source=gen", "--n=100", "--t=3",
                 "--poison-rate=1.5"},
                &out, &err),
            2);
  EXPECT_NE(err.find("--poison-rate"), std::string::npos);

  EXPECT_EQ(Run({"stream", "--source=gen", "--n=100", "--t=3",
                 "--breaker-window=4"},
                &out, &err),
            2);
  EXPECT_NE(err.find("need --breaker"), std::string::npos);

  EXPECT_EQ(Run({"stream", "--source=gen", "--n=100", "--t=3",
                 "--breaker", "--breaker-threshold=2.0"},
                &out, &err),
            2);
  EXPECT_NE(err.find("--breaker-threshold"), std::string::npos);

  // The corruption drill needs an audit to catch it and a WAL to roll
  // back to; orphaned it is a caller error.
  EXPECT_EQ(Run({"stream", "--source=gen", "--n=100", "--t=3",
                 "--corrupt-state-after=2"},
                &out, &err),
            2);
  EXPECT_NE(err.find("--corrupt-state-after"), std::string::npos);
}

TEST_F(CliTest, StreamHealthyAuditedRunPrintsHealthLine) {
  std::vector<std::string> base = {"stream",      "--source=gen",
                                   "--n=250",     "--t=5",
                                   "--k=3",       "--l=3",
                                   "--seed=11",   "--churn-min=20",
                                   "--churn-max=40"};
  std::string plain;
  ASSERT_EQ(Run(base, &plain), 0);

  std::vector<std::string> audited_args = base;
  audited_args.push_back("--audit-every=2");
  std::string audited;
  ASSERT_EQ(Run(audited_args, &audited), 0);
  EXPECT_NE(audited.find("health: healthy audits=2 failures=0"),
            std::string::npos)
      << audited;
  // Audits are pure observers: the tracked result is unchanged.
  EXPECT_EQ(FinalLine(audited), FinalLine(plain));
}

TEST_F(CliTest, StreamPoisonRunQuarantinesAndExitsDegraded) {
  std::vector<std::string> base = {"stream",      "--source=gen",
                                   "--n=250",     "--t=6",
                                   "--k=3",       "--l=3",
                                   "--seed=11",   "--churn-min=20",
                                   "--churn-max=40"};
  std::string clean;
  ASSERT_EQ(Run(base, &clean), 0);

  std::string dir = TempDir("poison_run");
  std::vector<std::string> poisoned_args = base;
  poisoned_args.push_back("--poison-rate=0.3");
  poisoned_args.push_back("--quarantine-dir=" + dir);
  std::string poisoned;
  ASSERT_EQ(Run(poisoned_args, &poisoned), 6);
  EXPECT_NE(poisoned.find("health: degraded (quarantined-delta)"),
            std::string::npos)
      << poisoned;
  EXPECT_NE(poisoned.find("poison injected:"), std::string::npos);
  // Exactly the poison was diverted: the surviving stream reproduces
  // the clean run bit for bit.
  EXPECT_EQ(FinalLine(poisoned), FinalLine(clean));

  // The quarantine subcommand lists the dead-lettered deltas.
  std::string listed;
  ASSERT_EQ(Run({"quarantine", dir}, &listed), 0);
  EXPECT_NE(listed.find("quarantined delta(s) in"), std::string::npos);
  EXPECT_NE(listed.find("reason=invalid-delta"), std::string::npos);
  EXPECT_NE(listed.find("self-loop"), std::string::npos);
}

TEST_F(CliTest, QuarantineCommandErrors) {
  std::string out, err;
  EXPECT_EQ(Run({"quarantine"}, &out, &err), 2);
  EXPECT_NE(err.find("missing"), std::string::npos);

  EXPECT_EQ(Run({"quarantine", TempDir("no_such_quarantine")}, &out, &err),
            3);
  EXPECT_NE(err.find("no quarantine log"), std::string::npos);
}

TEST_F(CliTest, StreamCorruptionDrillSelfHealsBitIdentically) {
  std::vector<std::string> base = {"stream",      "--source=gen",
                                   "--n=250",     "--t=6",
                                   "--k=3",       "--l=3",
                                   "--seed=11",   "--churn-min=20",
                                   "--churn-max=40"};
  std::string clean;
  ASSERT_EQ(Run(base, &clean), 0);

  std::string dir = TempDir("drill_run");
  std::vector<std::string> drilled_args = base;
  drilled_args.push_back("--checkpoint-dir=" + dir);
  drilled_args.push_back("--audit-every=2");
  drilled_args.push_back("--corrupt-state-after=2");
  std::string drilled;
  ASSERT_EQ(Run(drilled_args, &drilled), 6);
  EXPECT_NE(drilled.find("health: degraded (audit-recovered)"),
            std::string::npos)
      << drilled;
  EXPECT_NE(drilled.find("recoveries=1"), std::string::npos) << drilled;
  // Rollback recovery reproduced the exact pre-drill trajectory.
  EXPECT_EQ(FinalLine(drilled), FinalLine(clean));
}

TEST_F(CliTest, StreamBreakerRunSurvivesFaultySourceDegraded) {
  std::vector<std::string> base = {"stream",      "--source=gen",
                                   "--n=250",     "--t=6",
                                   "--k=3",       "--l=3",
                                   "--seed=11",   "--churn-min=20",
                                   "--churn-max=40"};
  std::string clean;
  ASSERT_EQ(Run(base, &clean), 0);

  // No retry budget: every injected fault reaches the breaker, which
  // trips, cools down in pulls, half-open-probes, and the run still
  // completes with the identical final state — exit 6 because trips
  // mean the source was degraded.
  std::vector<std::string> guarded_args = base;
  guarded_args.push_back("--fault-rate=0.4");
  guarded_args.push_back("--fault-seed=3");
  guarded_args.push_back("--max-retries=0");
  guarded_args.push_back("--breaker");
  guarded_args.push_back("--breaker-window=4");
  guarded_args.push_back("--breaker-threshold=0.5");
  guarded_args.push_back("--breaker-cooldown=6");
  std::string guarded;
  ASSERT_EQ(Run(guarded_args, &guarded), 6);
  EXPECT_NE(guarded.find("health: degraded (source-unavailable)"),
            std::string::npos)
      << guarded;
  EXPECT_NE(guarded.find("breaker opened"), std::string::npos) << guarded;
  EXPECT_EQ(FinalLine(guarded), FinalLine(clean));
}

}  // namespace
}  // namespace cli
}  // namespace avt
