//! Exact outputs pinned per seed. A seed listed here must reproduce its
//! pin bit for bit; other seeds run the cross-path gates and, for
//! `table3`, an accuracy floor. Regenerate a pin from the `note:` line a
//! run prints on standard error, and only when a change is meant to alter
//! the pinned outputs.

use crate::Size;

/// Table 3 pipeline outputs on the test split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table3Pin {
    pub seed: u64,
    pub reference_correct: usize,
    pub chip_correct: usize,
    pub consistent: usize,
    /// Digest of the float and chip predictions and the chip's exact
    /// executor counts.
    pub digest: u64,
}

/// Simulator outputs: the mesh outcome and the batch outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimPin {
    pub seed: u64,
    pub events_delivered: u64,
    pub violations: u64,
    /// Digest of the mesh outcome (stats, probe traces, violations) and of
    /// every batch item's outcome.
    pub digest: u64,
}

/// Both scales pin the default seed 1 and the held-out seed 7919.
const TABLE3_PAPER: &[Table3Pin] = &[
    Table3Pin {
        seed: 1,
        reference_correct: 494,
        chip_correct: 494,
        consistent: 492,
        digest: 4_923_502_587_216_253_771,
    },
    Table3Pin {
        seed: 7919,
        reference_correct: 495,
        chip_correct: 494,
        consistent: 492,
        digest: 7_321_676_594_325_700_697,
    },
];

const TABLE3_SMALL: &[Table3Pin] = &[
    Table3Pin {
        seed: 1,
        reference_correct: 176,
        chip_correct: 160,
        consistent: 169,
        digest: 1_598_278_346_831_758_089,
    },
    Table3Pin {
        seed: 7919,
        reference_correct: 168,
        chip_correct: 161,
        consistent: 163,
        digest: 11_436_994_921_016_943_409,
    },
];

const SIM_PAPER: &[SimPin] = &[
    SimPin {
        seed: 1,
        events_delivered: 4_440_688,
        violations: 0,
        digest: 6_131_140_908_004_606_773,
    },
    SimPin {
        seed: 7919,
        events_delivered: 4_440_688,
        violations: 0,
        digest: 3_578_382_504_098_002_695,
    },
];

const SIM_SMALL: &[SimPin] = &[
    SimPin {
        seed: 1,
        events_delivered: 274_588,
        violations: 0,
        digest: 12_975_798_052_811_805_792,
    },
    SimPin {
        seed: 7919,
        events_delivered: 274_588,
        violations: 0,
        digest: 14_726_068_967_584_065_675,
    },
];

pub fn table3(size: Size, seed: u64) -> Option<Table3Pin> {
    let table = match size {
        Size::Paper => TABLE3_PAPER,
        Size::Small => TABLE3_SMALL,
    };
    table.iter().copied().find(|p| p.seed == seed)
}

pub fn sim(size: Size, seed: u64) -> Option<SimPin> {
    let table = match size {
        Size::Paper => SIM_PAPER,
        Size::Small => SIM_SMALL,
    };
    table.iter().copied().find(|p| p.seed == seed)
}
