//! The PyxIL program representation: placed, reordered NIR with explicit
//! heap-synchronization operations.

use crate::reorder;
use crate::sync;
use pyx_analysis::ProgramAnalysis;
use pyx_ilp::Side;
use pyx_lang::{pretty, NirProgram, Operand, StmtId};
use pyx_partition::Placement;
use std::collections::HashMap;

/// An explicit heap-synchronization operation (§3.2). Batched by the
/// runtime and shipped on the next control transfer.
///
/// The paper presents `sendAPP(o)`/`sendDB(o)` as shipping a whole object
/// part; the batched update the runtime actually transmits contains the
/// *modified* fields ("modifications are aggregated and sent on each
/// control transfer"). We make the modified field explicit — shipping the
/// entire part would overwrite newer remote values of sibling fields with
/// stale copies.
#[derive(Debug, Clone, PartialEq)]
pub enum SyncOp {
    /// `sendAPP(base)` / `sendDB(base)` (named by `part`, the field's
    /// authoritative side): ship `base.field`.
    SendField {
        base: Operand,
        field: pyx_lang::FieldId,
        part: Side,
    },
    /// `sendNative(arr)`: ship the full contents of an array (or dbQuery
    /// result array).
    SendNative { arr: Operand },
}

/// A complete PyxIL program.
#[derive(Debug)]
pub struct PyxilProgram {
    /// The (possibly reordered) program.
    pub prog: NirProgram,
    pub placement: Placement,
    /// Sync operations to perform immediately after each statement.
    pub sync: HashMap<StmtId, Vec<SyncOp>>,
}

/// A deployable partition: PyxIL plus its compiled execution blocks and
/// their register-bytecode lowering (what the runtime executes).
#[derive(Debug)]
pub struct CompiledPartition {
    pub il: PyxilProgram,
    pub bp: crate::blocks::BlockProgram,
    pub bc: crate::bytecode::BytecodeProgram,
}

// A compiled partition is immutable shared data (string constants are
// `Arc<str>`): shard worker threads share one copy behind an `Arc`
// instead of recompiling per thread. Keep it that way.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledPartition>()
};

impl CompiledPartition {
    /// Full back end: placement → PyxIL (reorder + sync) → blocks →
    /// bytecode.
    pub fn build(
        prog: &NirProgram,
        analysis: &ProgramAnalysis,
        placement: Placement,
        reorder: bool,
    ) -> CompiledPartition {
        let il = build_pyxil(prog, analysis, placement, reorder);
        let bp = crate::compile::compile_blocks(&il);
        let bc = crate::bytecode::compile_bytecode(&il, &bp);
        CompiledPartition { il, bp, bc }
    }
}

/// Build PyxIL from a solved placement: reorder statements to reduce
/// control transfers (§4.4), then insert synchronization (§4.5).
pub fn build_pyxil(
    prog: &NirProgram,
    analysis: &ProgramAnalysis,
    placement: Placement,
    reorder_stmts: bool,
) -> PyxilProgram {
    let mut prog = prog.clone();
    if reorder_stmts {
        reorder::reorder_program(&mut prog, &placement);
    }
    let sync = sync::insert_sync(&prog, analysis, &placement);
    PyxilProgram {
        prog,
        placement,
        sync,
    }
}

impl PyxilProgram {
    /// Render in the paper's Fig. 3 style: every statement prefixed with
    /// its placement, sync ops printed inline.
    pub fn render(&self) -> String {
        let placement = &self.placement;
        let sync = &self.sync;
        pretty::render_program(&self.prog, &|s: StmtId| {
            let side = match placement.side_of_stmt(s) {
                Side::App => ":APP:",
                Side::Db => ":DB: ",
            };
            let ops = sync
                .get(&s)
                .map(|v| {
                    v.iter()
                        .map(|op| match op {
                            SyncOp::SendField {
                                part: Side::App, ..
                            } => " +sendAPP".to_string(),
                            SyncOp::SendField { part: Side::Db, .. } => " +sendDB".to_string(),
                            SyncOp::SendNative { .. } => " +sendNative".to_string(),
                        })
                        .collect::<String>()
                })
                .unwrap_or_default();
            format!("{side}{ops} ")
        })
    }

    /// Count of control transfers implied by straight-line statement order
    /// (diagnostics for the reordering ablation).
    pub fn transition_count(&self) -> usize {
        reorder::count_transitions(&self.prog, &self.placement)
    }
}
