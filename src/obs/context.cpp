#include "obs/context.hpp"

namespace h2sim::obs {

namespace {
thread_local Context* tls_current = nullptr;
}  // namespace

Context& default_context() {
  static Context ctx;
  return ctx;
}

Context& current() {
  Context* c = tls_current;
  return c ? *c : default_context();
}

MetricsRegistry& metrics() { return current().metrics; }

Tracer& tracer() { return current().tracer; }

ScopedContext::ScopedContext(Context& ctx) : prev_(tls_current) {
  tls_current = &ctx;
}

ScopedContext::~ScopedContext() { tls_current = prev_; }

}  // namespace h2sim::obs
