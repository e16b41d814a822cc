// Interactive shell: create relations, inspect the catalog, and run SQL
// against the full optimizer + executor stack.
//
//   ./build/examples/xprs_shell            # interactive
//   echo "..." | ./build/examples/xprs_shell   # scripted
//
// Commands:
//   .create <name> <tuples> <io_rate> [key_range]   build a relation whose
//                                       sequential scan runs at io_rate io/s
//   .tables                             list relations with stats
//   .explain <sql>                      optimize only, print plan + costs
//   .profile <sql>                      EXPLAIN ANALYZE through the parallel
//                                       master: actual rows/pages/time per
//                                       operator + adjustment timeline
//   .help                               this text
//   .quit
//   anything else is executed as SQL (EXPLAIN [ANALYZE] prefixes work too).

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "sql/engine.h"
#include "workload/relations.h"

using namespace xprs;

namespace {

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  .create <name> <tuples> <io_rate> [key_range]\n"
      "  .tables | .explain <sql> | .parallel <sql> | .profile <sql>\n"
      "  .help | .quit\n"
      "  otherwise: SQL, e.g. SELECT count(a) FROM r WHERE a < 10\n");
}

void PrintResult(const SqlResult& result) {
  std::printf("%s\n", result.schema.ToString().c_str());
  size_t shown = 0;
  for (const auto& row : result.rows) {
    if (shown++ >= 20) {
      std::printf("... (%zu more rows)\n", result.rows.size() - 20);
      break;
    }
    std::printf("%s\n", row.ToString().c_str());
  }
  std::printf("(%zu rows; seqcost %.2fs, parcost %.2fs)\n",
              result.rows.size(), result.seqcost, result.parcost);
}

}  // namespace

int main() {
  MachineConfig machine = MachineConfig::PaperConfig();
  DiskArray array(machine.num_disks, DiskMode::kInstant);
  Catalog catalog(&array);
  CostModel model;
  SqlEngine engine(&catalog, machine, &model);
  ExecContext ctx;
  Rng rng(123);

  std::printf("xprs shell — %s\n", machine.ToString().c_str());
  PrintHelp();

  std::string line;
  std::vector<std::string> table_names;
  while (true) {
    std::printf("xprs> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;

    if (line[0] == '.') {
      std::istringstream in(line);
      std::string cmd;
      in >> cmd;
      if (cmd == ".quit" || cmd == ".exit") break;
      if (cmd == ".help") {
        PrintHelp();
        continue;
      }
      if (cmd == ".tables") {
        for (const std::string& name : table_names) {
          Table* t = catalog.GetTable(name).value();
          std::printf("  %-12s %8llu tuples %6u pages  keys [%d, %d]\n",
                      name.c_str(),
                      static_cast<unsigned long long>(t->stats().num_tuples),
                      t->stats().num_pages, t->stats().min_key,
                      t->stats().max_key);
        }
        continue;
      }
      if (cmd == ".create") {
        std::string name;
        uint64_t tuples = 0;
        double rate = 30.0;
        int32_t key_range = 1000;
        in >> name >> tuples >> rate;
        if (!(in >> key_range)) key_range = 1000;
        if (name.empty() || tuples == 0) {
          std::printf("usage: .create <name> <tuples> <io_rate> [key_range]\n");
          continue;
        }
        auto table = BuildRelation(&catalog, name, tuples,
                                   TextWidthForIoRate(rate), key_range, &rng);
        if (!table.ok()) {
          std::printf("error: %s\n", table.status().ToString().c_str());
          continue;
        }
        table_names.push_back(name);
        auto measured = MeasureSeqScan(table.value());
        std::printf("created %s: %llu tuples, %u pages, seq scan %.1f io/s "
                    "(%s)\n",
                    name.c_str(), static_cast<unsigned long long>(tuples),
                    (*table)->stats().num_pages, measured->io_rate(),
                    measured->io_rate() > machine.io_cpu_threshold()
                        ? "IO-bound"
                        : "CPU-bound");
        continue;
      }
      if (cmd == ".parallel") {
        std::string sql = line.substr(line.find(".parallel") + 9);
        auto prepared = engine.Prepare(sql);
        if (!prepared.ok()) {
          std::printf("error: %s\n", prepared.status().ToString().c_str());
          continue;
        }
        RunOptions run;
        run.master.emplace();  // INTER-WITH-ADJ on real slave threads
        auto result = engine.Run(*prepared, run);
        if (!result.ok()) {
          std::printf("error: %s\n", result.status().ToString().c_str());
          continue;
        }
        PrintResult(*result);
        continue;
      }
      if (cmd == ".profile") {
        std::string sql = line.substr(line.find(".profile") + 8);
        MasterOptions options;
        auto result = engine.ExplainAnalyzeParallel(sql, options);
        if (!result.ok()) {
          std::printf("error: %s\n", result.status().ToString().c_str());
          continue;
        }
        std::printf("%s", result->analyze_text.c_str());
        std::printf("(%zu rows; seqcost %.2fs, parcost %.2fs)\n",
                    result->rows.size(), result->seqcost, result->parcost);
        continue;
      }
      if (cmd == ".explain") {
        std::string sql = line.substr(line.find(".explain") + 8);
        auto result = engine.Explain(sql);
        if (!result.ok()) {
          std::printf("error: %s\n", result.status().ToString().c_str());
          continue;
        }
        std::printf("seqcost %.2fs, parcost(n=%d) %.2fs\n%s",
                    result->seqcost, machine.num_cpus, result->parcost,
                    result->plan_text.c_str());
        continue;
      }
      std::printf("unknown command %s (.help for help)\n", cmd.c_str());
      continue;
    }

    auto result = engine.Execute(line, ctx);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    if (!result->analyze_text.empty())
      std::printf("%s", result->analyze_text.c_str());
    PrintResult(*result);
  }
  std::printf("\nbye\n");
  return 0;
}
