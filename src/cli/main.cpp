// epg: the easy-parallel-graph-* command-line tool.
#include <iostream>
#include <string>
#include <vector>

#include "cli/commands.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  return epgs::cli::dispatch(args, std::cout, std::cerr);
}
