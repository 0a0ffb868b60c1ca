// Name-indexed construction of allocation schemes, so CLI flags like
// `--schemes hydra,single-core,optimal` and config files can pick strategies
// without compiling against their option structs.
//
// The global registry ships the paper's three schemes (`hydra`,
// `single-core`, `optimal`), the HYDRA ablation variants (`hydra/...`) and
// the adaptive families (`contego`, `period-adapt`, `util/...`);
// docs/scheme-catalog.md is the generated list with descriptions.
//
// New schemes register with `add` (typically at startup); the lookup and
// diagnostics are util::NamedRegistry's.
// docs/allocator-authoring.md walks through adding one end to end.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/allocator.h"
#include "util/named_registry.h"

namespace hydra::core {

class AllocatorRegistry : public util::NamedRegistry<Allocator> {
 public:
  AllocatorRegistry() : NamedRegistry("allocation scheme") {}

  /// Constructs the scheme registered under `name`; the result's
  /// Allocator::name() reports exactly `name`.
  std::unique_ptr<Allocator> make(const std::string& name) const;

  /// Constructs every named scheme, in order (CLI callers split their
  /// comma-separated spec with util::CliParser::get_string_list first).
  /// Throws std::invalid_argument when `names` is empty or contains an
  /// unknown name.
  std::vector<std::unique_ptr<Allocator>> make_all(
      const std::vector<std::string>& names) const;

  /// The process-wide registry pre-populated with the built-in schemes.
  static AllocatorRegistry& global();
};

/// Renders the registry as the markdown scheme catalog committed at
/// docs/scheme-catalog.md.  Regenerate with
/// `bench_table1_catalog --catalog-out docs/scheme-catalog.md` (or
/// `HYDRA_UPDATE_CATALOG=1 ./build/test_catalogs`).
std::string scheme_catalog_markdown(const AllocatorRegistry& registry);

}  // namespace hydra::core
