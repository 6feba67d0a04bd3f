/**
 * @file
 * The per-class field-taxonomy declarations the copra_lint sema pass
 * cross-checks against the parsed member list (DESIGN.md §14).
 *
 * Every roster predictor declares each member field in exactly one of
 * three lists — COPRA_STATE_FIELDS (adaptive state),
 * COPRA_CONFIG_FIELDS (immutable after construction), or
 * COPRA_TRANSIENT_FIELDS (scratch/telemetry that must never influence
 * predictions). Each expands to a constexpr character array holding
 * the stringized field list, which gives the sema pass a lexically
 * visible declaration to cross-check against the parsed member list
 * and gives contracts.hpp a compile-time detection hook.
 */

#pragma once

#define COPRA_STATE_FIELDS(...)                                           \
    static constexpr const char kCopraStateFields[] = "" #__VA_ARGS__
#define COPRA_CONFIG_FIELDS(...)                                          \
    static constexpr const char kCopraConfigFields[] = "" #__VA_ARGS__
#define COPRA_TRANSIENT_FIELDS(...)                                       \
    static constexpr const char kCopraTransientFields[] = "" #__VA_ARGS__
