/**
 * @file
 * Computational state abstraction.
 *
 * A *state dependence* (paper §II-A) is a read-after-write chain
 * S_i = update(S_{i-1}, I_i).  The STATS runtime manipulates whole
 * computational states: it clones them (speculative state hand-off,
 * snapshots for original-state regeneration), compares them (commit
 * checks), and tracks their size (copy/compare cost, Table I).  State is
 * the type-erased base all workload states derive from.
 */

#ifndef REPRO_CORE_STATE_H
#define REPRO_CORE_STATE_H

#include <memory>

namespace repro::core {

class VersionedBuffer;

/**
 * Base class of a workload's computational state.
 */
class State
{
  public:
    virtual ~State() = default;

    /** Deep copy of this state. */
    virtual std::unique_ptr<State> clone() const = 0;

    /**
     * The block-versioned payload backing this state, or null for
     * legacy states whose clone() copies eagerly.  States that return
     * a payload get zero-copy cloning and incremental commit
     * validation (see core/versioned_state.h); the runtime uses it to
     * price copies/compares by bytes actually moved.
     */
    virtual const VersionedBuffer *payload() const { return nullptr; }
};

/** Owning handle to a computational state. */
using StateHandle = std::unique_ptr<State>;

/**
 * Typed convenience wrapper: derives clone() from the copy constructor.
 *
 * Usage: struct MyState : TypedState<MyState> { ... };
 */
template <typename Derived>
class TypedState : public State
{
  public:
    StateHandle
    clone() const override
    {
        return std::make_unique<Derived>(static_cast<const Derived &>(*this));
    }
};

} // namespace repro::core

#endif // REPRO_CORE_STATE_H
