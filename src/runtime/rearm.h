// Self-rearming callbacks: timer chains and animation-frame loops.
//
// A callback that re-arms itself must not own itself: a closure holding a
// shared_ptr to its own std::function is a cycle that outlives the chain
// and the browser both. rearming() breaks the cycle by construction. The
// body never refers to itself; instead every call receives `again`, a copy
// of the running callback, to hand to set_timeout / request_animation_frame.
// Only armed copies (queued timers, pending frames) keep the body alive, so
// it is freed when the chain stops re-arming or when the browser drops its
// queued callbacks at teardown.
//
//   apis.set_timeout(rt::rearming([st, &apis](const auto& again) {
//       if (++st->ticks < 40) apis.set_timeout(again, 0);
//   }), 0);
//   apis.request_animation_frame(rt::rearming<double>([](const auto& again, double ts) {
//       ...
//   }));
#pragma once

#include <memory>
#include <utility>

namespace jsk::rt {

/// Wrap `body(again, args...)` as a callable taking `Args...`; see above.
/// Copies share one body.
template <typename... Args, typename Body>
auto rearming(Body body)
{
    struct callback {
        std::shared_ptr<Body> body;
        void operator()(Args... args) const { (*body)(*this, args...); }
    };
    return callback{std::make_shared<Body>(std::move(body))};
}

}  // namespace jsk::rt
