// One name-indexed factory table behind every by-name selection in the
// repo: core::AllocatorRegistry (allocation schemes), gp::SolverRegistry (GP
// solver backends) and sim::ControllerRegistry (runtime controller
// policies) are thin types over this template.  Registered names are stable
// identifiers that appear verbatim in result rows, sinks and catalogs;
// docs/architecture.md ("Registries and ambient scopes") describes the
// shared contract.
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace hydra::util {

template <class Product, class... Args>
class NamedRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Product>(Args...)>;

  /// `kind` is the noun every diagnostic uses ("allocation scheme",
  /// "GP solver backend", "controller policy").
  explicit NamedRegistry(std::string kind) : kind_(std::move(kind)) {}

  /// Registers an entry.  Throws std::invalid_argument on an empty name, a
  /// null factory or a duplicate name.
  void add(std::string name, std::string description, Factory factory) {
    if (name.empty()) throw std::invalid_argument(kind_ + " registry: empty name");
    if (!factory) {
      throw std::invalid_argument(kind_ + " registry: null factory for '" + name + "'");
    }
    if (find(name) != nullptr) {
      throw std::invalid_argument(kind_ + " registry: duplicate name '" + name + "'");
    }
    entries_.push_back({std::move(name), std::move(description), std::move(factory)});
  }

  bool contains(const std::string& name) const { return find(name) != nullptr; }

  /// Throws std::invalid_argument, listing the registered names, when `name`
  /// is unknown: the cheap existence check for callers that only validate.
  void require(const std::string& name) const { entry(name); }

  /// Constructs the entry registered under `name` (throws like require).
  std::unique_ptr<Product> make(const std::string& name, Args... args) const {
    return entry(name).factory(args...);
  }

  /// Registered names, in registration order.
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& e : entries_) out.push_back(e.name);
    return out;
  }

  /// The registration-time description of `name` (throws like require).
  const std::string& description(const std::string& name) const {
    return entry(name).description;
  }

  /// `preamble` followed by one `| \`name\` | description |` row per entry,
  /// in registration order: the generated docs/*-catalog.md tables.
  std::string catalog_markdown(std::string preamble) const {
    for (const auto& e : entries_) {
      preamble += "| `" + e.name + "` | " + e.description + " |\n";
    }
    return preamble;
  }

 private:
  struct Entry {
    std::string name;
    std::string description;
    Factory factory;
  };

  const Entry* find(const std::string& name) const {
    for (const auto& e : entries_) {
      if (e.name == name) return &e;
    }
    return nullptr;
  }

  const Entry& entry(const std::string& name) const {
    if (const Entry* e = find(name)) return *e;
    std::string known;  // built only here, off the success path
    for (const auto& e : entries_) {
      if (!known.empty()) known += ", ";
      known += e.name;
    }
    throw std::invalid_argument("unknown " + kind_ + " '" + name +
                                "' (registered: " + known + ")");
  }

  std::string kind_;
  std::vector<Entry> entries_;
};

}  // namespace hydra::util
