// Whether this test binary was built with a sanitizer. Suites whose work
// is sized or timed for an uninstrumented build ask here: the crash sweep
// trims its wave, and the overhead guards skip.
#pragma once

inline constexpr bool sanitized_build()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}
