//! Dependence-conformance sanitizer: the task-scoped access recorder.
//!
//! The paper's contract (§IV-A/B) is that a `[prefetch]` entry method
//! touches exactly the blocks it declared, in at most the declared
//! modes. The sanitizer enforces this dynamically: the scheduler hook
//! pushes the running task's token and `Dep` list into a thread-local
//! scope around the entry method's execution, and every
//! [`hetmem::AccessGuard`] acquisition on that thread is checked
//! against the scope. Accesses outside any scope (initialization
//! writes, verification readbacks, non-prefetch entry methods) are
//! deliberately ignored — the contract only binds admitted tasks.

use crate::violation::Violation;
use converse::Dep;
use hetmem::{AccessMode, BlockId};
use std::cell::RefCell;

struct TaskScope {
    token: u64,
    deps: Vec<Dep>,
}

thread_local! {
    // A stack, not a single slot: entry methods never nest today, but a
    // stack makes re-entrancy a non-event instead of a corruption.
    static SCOPES: RefCell<Vec<TaskScope>> = const { RefCell::new(Vec::new()) };
}

/// Enter a task scope on the current thread. Must be balanced with
/// [`exit`] on the same thread.
pub(crate) fn enter(token: u64, deps: Vec<Dep>) {
    SCOPES.with(|s| s.borrow_mut().push(TaskScope { token, deps }));
}

/// Exit the innermost task scope on the current thread. The token is
/// checked so unbalanced hooks fail loudly rather than silently
/// attributing accesses to the wrong task.
pub(crate) fn exit(token: u64) {
    SCOPES.with(|s| {
        let top = s.borrow_mut().pop();
        match top {
            Some(scope) => debug_assert_eq!(
                scope.token, token,
                "unbalanced task scope: exiting {token} but innermost is {}",
                scope.token
            ),
            None => debug_assert!(false, "exiting task scope {token} with no scope active"),
        }
    });
}

/// Check one guard acquisition against the innermost task scope on this
/// thread. Returns the violation, if any; `None` when no scope is
/// active or the access conforms.
pub(crate) fn check_access(block: BlockId, mode: AccessMode) -> Option<Violation> {
    SCOPES.with(|s| {
        let scopes = s.borrow();
        let scope = scopes.last()?;
        conformance(scope.token, &scope.deps, block, mode)
    })
}

/// The pure conformance rule: does an access to `block` with `mode`
/// conform to the declared `deps` of task `token`?
pub(crate) fn conformance(
    token: u64,
    deps: &[Dep],
    block: BlockId,
    mode: AccessMode,
) -> Option<Violation> {
    let Some(dep) = deps.iter().find(|d| d.block == block) else {
        return Some(Violation::UndeclaredAccess { token, block, mode });
    };
    match dep.mode {
        // Declared read-only: any exclusive use is an escalation.
        AccessMode::ReadOnly if mode.is_exclusive() => Some(Violation::ModeEscalation {
            token,
            block,
            declared: dep.mode,
            actual: mode,
        }),
        // Declared write-only: the fetch skipped the copy, so any mode
        // that reads the previous contents observes garbage.
        AccessMode::WriteOnly if mode.reads_old_contents() => Some(Violation::UninitializedRead {
            token,
            block,
            actual: mode,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dep(b: u32, mode: AccessMode) -> Dep {
        Dep {
            block: BlockId(b),
            mode,
        }
    }

    #[test]
    fn conforming_accesses_pass() {
        let deps = [
            dep(1, AccessMode::ReadOnly),
            dep(2, AccessMode::ReadWrite),
            dep(3, AccessMode::WriteOnly),
        ];
        assert!(conformance(7, &deps, BlockId(1), AccessMode::ReadOnly).is_none());
        assert!(conformance(7, &deps, BlockId(2), AccessMode::ReadOnly).is_none());
        assert!(conformance(7, &deps, BlockId(2), AccessMode::ReadWrite).is_none());
        assert!(conformance(7, &deps, BlockId(3), AccessMode::WriteOnly).is_none());
    }

    #[test]
    fn undeclared_access_is_flagged() {
        let deps = [dep(1, AccessMode::ReadOnly)];
        let v = conformance(9, &deps, BlockId(5), AccessMode::ReadOnly).unwrap();
        assert!(matches!(v, Violation::UndeclaredAccess { .. }), "{v}");
        assert!(v.to_string().contains("task 9"));
    }

    #[test]
    fn write_through_readonly_dep_is_escalation() {
        let deps = [dep(1, AccessMode::ReadOnly)];
        for mode in [AccessMode::ReadWrite, AccessMode::WriteOnly] {
            let v = conformance(2, &deps, BlockId(1), mode).unwrap();
            assert!(matches!(v, Violation::ModeEscalation { .. }), "{v}");
        }
    }

    #[test]
    fn read_of_writeonly_dep_is_uninitialized_read() {
        let deps = [dep(4, AccessMode::WriteOnly)];
        for mode in [AccessMode::ReadOnly, AccessMode::ReadWrite] {
            let v = conformance(3, &deps, BlockId(4), mode).unwrap();
            assert!(matches!(v, Violation::UninitializedRead { .. }), "{v}");
        }
    }

    #[test]
    fn scope_free_accesses_are_ignored() {
        assert!(check_access(BlockId(1), AccessMode::ReadWrite).is_none());
    }

    #[test]
    fn scope_stack_checks_innermost() {
        enter(1, vec![dep(1, AccessMode::ReadOnly)]);
        enter(2, vec![dep(2, AccessMode::ReadWrite)]);
        // Innermost scope (task 2) governs.
        let v = check_access(BlockId(1), AccessMode::ReadOnly).unwrap();
        assert!(matches!(v, Violation::UndeclaredAccess { token: 2, .. }));
        assert!(check_access(BlockId(2), AccessMode::ReadWrite).is_none());
        exit(2);
        assert!(check_access(BlockId(1), AccessMode::ReadOnly).is_none());
        exit(1);
    }
}
