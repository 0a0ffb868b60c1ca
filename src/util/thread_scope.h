// RAII thread-local ambient values: a ThreadScope<T> installs `value` for
// the current thread until it is destroyed, scopes nest innermost-wins, and
// code without options plumbing reads the innermost value through
// `current()`.  `Tag` keeps two scopes over the same T apart (the GP backend
// and the controller policy are both names).  docs/architecture.md
// ("Registries and ambient scopes") lists the scopes the sweep installs.
#pragma once

#include <string>
#include <utility>

namespace hydra::util {

template <class T, class Tag = T>
class ThreadScope {
 public:
  explicit ThreadScope(T value) : value_(std::move(value)), previous_(innermost_) {
    innermost_ = &value_;
  }
  ~ThreadScope() { innermost_ = previous_; }
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

  /// The innermost scope's value on this thread, or nullptr when none.
  static const T* current() { return innermost_; }

 private:
  static inline thread_local const T* innermost_ = nullptr;

  T value_;
  const T* previous_;
};

/// Resolves a by-name selection: a non-empty `configured` name wins, else
/// the innermost ThreadScope<std::string, Tag>, else `fallback`.  An empty
/// innermost scope means `fallback` too, so a scope of "" shadows outer
/// scopes back to the default.
template <class Tag>
const std::string& resolve_scoped_name(const std::string& configured,
                                       const std::string& fallback) {
  if (!configured.empty()) return configured;
  const std::string* scoped = ThreadScope<std::string, Tag>::current();
  return scoped != nullptr && !scoped->empty() ? *scoped : fallback;
}

}  // namespace hydra::util
