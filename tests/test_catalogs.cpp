// One parametrized suite over the three name registries: allocation schemes
// (core::AllocatorRegistry), GP solver backends (gp::SolverRegistry) and
// controller policies (sim::ControllerRegistry).  It pins the shipped names,
// name stamping, the exact unknown-name diagnostics, rejection of bad
// entries, and the generated docs/*-catalog.md files byte for byte.  After an
// intentional registry change,
//
//     HYDRA_UPDATE_CATALOG=1 ./build/test_catalogs
//
// rewrites the committed catalogs in place.  The controller-only cases
// (config validation at make, scope resolution) are plain tests at the end.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.h"
#include "gp/solver_registry.h"
#include "sim/controller.h"

namespace core = hydra::core;
namespace gp = hydra::gp;
namespace sim = hydra::sim;

namespace {

/// One registry under test.  The registry-specific parts are closures, so
/// every assertion below runs unchanged against all three.
struct Catalog {
  std::string label;   ///< gtest parameter name
  std::string doc;     ///< committed catalog, relative to the source root
  std::string heading;
  std::vector<std::string> shipped;
  std::string unknown;          ///< a name nothing registers
  std::string unknown_message;  ///< its diagnostic, byte for byte
  std::function<std::vector<std::string>()> names;
  std::function<std::string(const std::string&)> description;
  std::function<bool(const std::string&)> contains;
  std::function<void(const std::string&)> require;
  std::function<std::string(const std::string&)> made_name;  ///< make(name)->name()
  std::function<std::string()> markdown;
  std::function<void()> expect_rejects_bad_entries;
};

/// Fills the closures every registry shares, resolving Registry::global()
/// lazily (gtest builds the parameters during static initialization).
template <class Registry>
Catalog bind(Catalog c) {
  c.names = [] { return Registry::global().names(); };
  c.description = [](const std::string& name) {
    return Registry::global().description(name);
  };
  c.contains = [](const std::string& name) { return Registry::global().contains(name); };
  c.require = [](const std::string& name) { Registry::global().require(name); };
  c.expect_rejects_bad_entries = [] {
    // Any working factory will do: delegate to the global registry's first entry.
    const typename Registry::Factory good_factory = [](const auto&... args) {
      return Registry::global().make(Registry::global().names().front(), args...);
    };
    Registry registry;
    registry.add("mine", "an entry", good_factory);
    EXPECT_THROW(registry.add("mine", "again", good_factory), std::invalid_argument);
    EXPECT_THROW(registry.add("", "anon", good_factory), std::invalid_argument);
    EXPECT_THROW(registry.add("null", "no factory", nullptr), std::invalid_argument);
    EXPECT_EQ(registry.names(), std::vector<std::string>{"mine"});
  };
  return c;
}

Catalog scheme_catalog() {
  Catalog c;
  c.label = "Scheme";
  c.doc = "docs/scheme-catalog.md";
  c.heading = "# Scheme catalog";
  // The paper's schemes, the HYDRA ablations, and the adaptive families.
  c.shipped = {"hydra", "hydra/gp", "hydra/exact-rta", "hydra/first-fit",
               "hydra/least-loaded", "hydra/worst-tightness", "hydra/tie=lowest-index",
               "single-core", "single-core/joint", "optimal", "optimal/sum-surrogate",
               "contego", "contego/no-adapt", "period-adapt", "period-adapt/gp",
               "util/worst-fit", "util/best-fit"};
  c.unknown = "no-such-scheme";
  c.unknown_message =
      "unknown allocation scheme 'no-such-scheme' (registered: hydra, hydra/gp, "
      "hydra/exact-rta, hydra/first-fit, hydra/least-loaded, hydra/worst-tightness, "
      "hydra/tie=lowest-index, single-core, single-core/joint, optimal, "
      "optimal/sum-surrogate, contego, contego/no-adapt, period-adapt, "
      "period-adapt/gp, util/worst-fit, util/best-fit)";
  c.made_name = [](const std::string& name) {
    return core::AllocatorRegistry::global().make(name)->name();
  };
  c.markdown = [] {
    return core::scheme_catalog_markdown(core::AllocatorRegistry::global());
  };
  return bind<core::AllocatorRegistry>(std::move(c));
}

Catalog solver_catalog() {
  Catalog c;
  c.label = "Solver";
  c.doc = "docs/solver-catalog.md";
  c.heading = "# GP solver catalog";
  c.shipped = {"scp/barrier", "ipm/filter", "pick-best", gp::kDefaultGpBackend};
  c.unknown = "no-such-backend";
  c.unknown_message =
      "unknown GP solver backend 'no-such-backend' (registered: scp/barrier, "
      "ipm/filter, pick-best)";
  c.made_name = [](const std::string& name) {
    return gp::SolverRegistry::global().make(name)->name();
  };
  c.markdown = [] { return gp::solver_catalog_markdown(gp::SolverRegistry::global()); };
  return bind<gp::SolverRegistry>(std::move(c));
}

Catalog controller_catalog() {
  Catalog c;
  c.label = "Controller";
  c.doc = "docs/controller-catalog.md";
  c.heading = "# Controller policy catalog";
  c.shipped = {"hysteresis", "hysteresis/nlevel", "never-switch", "boost",
               sim::kDefaultControllerPolicy};
  c.unknown = "no-such-policy";
  c.unknown_message =
      "unknown controller policy 'no-such-policy' (registered: hysteresis, "
      "hysteresis/nlevel, never-switch, boost)";
  c.made_name = [](const std::string& name) {
    return sim::ControllerRegistry::global()
        .make(name, sim::ModeControllerConfig{}, sim::PolicyInit{4, 1000})
        ->name();
  };
  c.markdown = [] {
    return sim::controller_catalog_markdown(sim::ControllerRegistry::global());
  };
  return bind<sim::ControllerRegistry>(std::move(c));
}

void PrintTo(const Catalog& c, std::ostream* os) { *os << c.label; }

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class CatalogTest : public ::testing::TestWithParam<Catalog> {};

}  // namespace

TEST_P(CatalogTest, RegistryShipsTheDocumentedNames) {
  const Catalog& c = GetParam();
  for (const auto& name : c.shipped) {
    EXPECT_TRUE(c.contains(name)) << name;
    EXPECT_FALSE(c.description(name).empty()) << name;
  }
  EXPECT_FALSE(c.contains(c.unknown));
  EXPECT_THROW(c.made_name(c.unknown), std::invalid_argument);
}

TEST_P(CatalogTest, UnknownNameMessageIsPinned) {
  // User-visible: a sweep given an unknown name stops with this text, the
  // only place a user learns the valid names.
  const Catalog& c = GetParam();
  for (const auto& attempt : std::vector<std::function<void()>>{
           [&] { c.require(c.unknown); },
           [&] { c.made_name(c.unknown); },
           [&] { c.description(c.unknown); }}) {
    try {
      attempt();
      ADD_FAILURE() << "expected std::invalid_argument for " << c.unknown;
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()), c.unknown_message);
    }
  }
}

TEST_P(CatalogTest, EveryEntryStampsItsRegisteredName) {
  const Catalog& c = GetParam();
  for (const auto& name : c.names()) {
    EXPECT_EQ(c.made_name(name), name);
  }
}

TEST_P(CatalogTest, RejectsDuplicatesAndBadEntries) {
  GetParam().expect_rejects_bad_entries();
}

TEST_P(CatalogTest, MarkdownContainsEveryRegisteredEntry) {
  const Catalog& c = GetParam();
  const std::string markdown = c.markdown();
  for (const auto& name : c.names()) {
    EXPECT_NE(markdown.find("| `" + name + "` | " + c.description(name) + " |\n"),
              std::string::npos)
        << name;
  }
  EXPECT_EQ(markdown.rfind(c.heading + "\n", 0), 0u);
}

TEST_P(CatalogTest, CommittedDocMatchesTheLiveRegistry) {
  const Catalog& c = GetParam();
  const std::string path = std::string(HYDRA_SOURCE_DIR) + "/" + c.doc;
  const std::string expected = c.markdown();

  if (std::getenv("HYDRA_UPDATE_CATALOG") != nullptr) {
    std::ofstream out(path);
    out << expected;
    out.close();
    if (!out) FAIL() << "HYDRA_UPDATE_CATALOG: could not write " << path;
    GTEST_SKIP() << c.doc << " regenerated at " << path;
  }

  const std::string committed = read_file(path);
  ASSERT_FALSE(committed.empty()) << "missing " << path;
  EXPECT_EQ(committed, expected) << c.doc << " is out of sync with its registry; "
                                 << "regenerate with HYDRA_UPDATE_CATALOG=1 ./build/test_catalogs";
}

INSTANTIATE_TEST_SUITE_P(Registries, CatalogTest,
                         ::testing::Values(scheme_catalog(), solver_catalog(),
                                           controller_catalog()),
                         [](const ::testing::TestParamInfo<Catalog>& info) {
                           return info.param.label;
                         });

TEST(ControllerCatalog, MakeValidatesTheConfig) {
  const auto& registry = sim::ControllerRegistry::global();
  sim::ModeControllerConfig bad;
  bad.tighten_threshold = 2.0;  // the idle fraction is a ratio — can never fire
  EXPECT_THROW(registry.make("hysteresis", bad, sim::PolicyInit{1, 1}),
               std::invalid_argument);
  bad = {};
  bad.relax_threshold = -0.25;
  EXPECT_THROW(registry.make("boost", bad, sim::PolicyInit{1, 1}),
               std::invalid_argument);
}

TEST(ControllerCatalog, ScopeResolvesExplicitThenInnermostThenDefault) {
  // explicit > innermost scope > default; "" re-selects the default.
  EXPECT_EQ(sim::resolve_controller_policy(""), sim::kDefaultControllerPolicy);
  EXPECT_EQ(sim::resolve_controller_policy("boost"), "boost");
  {
    const sim::ControllerScope outer("never-switch");
    EXPECT_EQ(sim::resolve_controller_policy(""), "never-switch");
    EXPECT_EQ(sim::resolve_controller_policy("boost"), "boost");
    {
      const sim::ControllerScope inner("hysteresis/nlevel");
      EXPECT_EQ(sim::resolve_controller_policy(""), "hysteresis/nlevel");
    }
    EXPECT_EQ(sim::resolve_controller_policy(""), "never-switch");
    {
      const sim::ControllerScope blank("");
      EXPECT_EQ(sim::resolve_controller_policy(""), sim::kDefaultControllerPolicy);
    }
  }
  EXPECT_EQ(sim::resolve_controller_policy(""), sim::kDefaultControllerPolicy);
}

TEST(ControllerCatalog, ScopesOfDifferentTagsAreIndependent) {
  // The GP backend and the controller policy are both scoped names; their
  // tags keep one from leaking into the other's resolution.
  const gp::GpBackendScope backend("ipm/filter");
  EXPECT_EQ(sim::resolve_controller_policy(""), sim::kDefaultControllerPolicy);
  const sim::ControllerScope policy("boost");
  EXPECT_EQ(gp::resolve_gp_backend(""), "ipm/filter");
  {
    const gp::GpBackendScope blank("");
    EXPECT_EQ(gp::resolve_gp_backend(""), gp::kDefaultGpBackend);
    EXPECT_EQ(sim::resolve_controller_policy(""), "boost");
  }
}
