//! Machine-code encoding of CDNA2 MFMA instructions (VOP3P-MAI format).
//!
//! The MI200 ISA reference (paper ref. \[8]) defines `V_MFMA_*` as 64-bit
//! VOP3P-encoded instructions. This module implements the encoder and a
//! decoder for that format, with the opcode numbering of the MI200 ISA
//! manual's VOP3P opcode table:
//!
//! ```text
//! DWORD0: [31:23] = 0b110100111 (VOP3P encoding)
//!         [22:16] = opcode
//!         [15]    = ACC_CD  (C/D in AccVGPRs)
//!         [14:11] = CBSZ/ABID hint bits (broadcast controls, low half)
//!         [10:8]  = reserved
//!         [7:0]   = VDST
//! DWORD1: [31:29] = BLGP (B-lane group pattern)
//!         [28]    = ACC(src2)
//!         [27]    = ACC(src1)
//!         [26:18] = SRC2
//!         [17:9]  = SRC1
//!         [8:0]   = SRC0
//! ```
//!
//! Registers use the scalar/vector operand address space: VGPR `v[n]`
//! encodes as `256 + n` in the 9-bit source fields (hence the +256 seen
//! in disassembly), and AccVGPRs are selected by the ACC bits.

use crate::instr::{MatrixArch, MatrixInstruction};

/// VOP3P encoding marker in bits \[31:23] of DWORD0.
const VOP3P_ENCODING: u32 = 0b1_1010_0111;

/// Bits the encoder never emits: DWORD0 \[14:8] (CBSZ/ABID hints plus
/// the reserved field) and DWORD1 \[31:29] (BLGP). A word with any of
/// these set carries state [`MfmaEncoding`] cannot represent, so
/// [`MfmaEncoding::from_u64`] rejects it rather than decode lossily.
pub const RESERVED_MASK: u64 = (0b111u64 << 61) | 0x7F00;

/// Operand descriptor: a (Acc)VGPR base register.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reg {
    /// Architectural VGPR `v[n]`.
    V(u8),
    /// Accumulation VGPR `a[n]`.
    A(u8),
}

impl Reg {
    fn field(self) -> u32 {
        match self {
            // VGPRs occupy 256..511 of the 9-bit operand space.
            Reg::V(n) => 256 + u32::from(n),
            Reg::A(n) => 256 + u32::from(n),
        }
    }

    fn is_acc(self) -> bool {
        matches!(self, Reg::A(_))
    }
}

/// A fully-specified MFMA instruction instance ready to encode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MfmaEncoding {
    /// Opcode from the MI200 VOP3P-MAI table.
    pub opcode: u8,
    /// Destination (D) base register.
    pub vdst: Reg,
    /// A-matrix base register.
    pub src0: Reg,
    /// B-matrix base register.
    pub src1: Reg,
    /// C-matrix base register.
    pub src2: Reg,
}

/// Errors from encoding/decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EncodeError {
    /// The instruction has no VOP3P-MAI opcode (not a CDNA2 MFMA).
    NoOpcode(String),
    /// The 64-bit word is not VOP3P-encoded.
    NotVop3p(u64),
    /// The opcode field does not name an MFMA instruction.
    UnknownOpcode(u8),
    /// Reserved or unsupported-modifier bits are set. The encoder never
    /// emits CBSZ/ABID/BLGP or the reserved DWORD0 bits, so a word with
    /// any of them set cannot round-trip through [`MfmaEncoding`].
    ReservedBits {
        /// The offending word.
        word: u64,
        /// The set bits that fall inside the reserved/modifier mask.
        bits: u64,
    },
    /// A 9-bit source operand field falls outside the VGPR window
    /// `256..512` (scalar/constant operands are not valid MFMA sources).
    OperandOutOfRange {
        /// Which source field (`src0`, `src1`, or `src2`).
        field: &'static str,
        /// The raw 9-bit field value.
        value: u32,
    },
}

impl core::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EncodeError::NoOpcode(m) => write!(f, "`{m}` has no VOP3P-MAI opcode"),
            EncodeError::NotVop3p(w) => write!(f, "word {w:#018x} is not VOP3P-encoded"),
            EncodeError::UnknownOpcode(op) => write!(f, "opcode {op:#04x} is not an MFMA"),
            EncodeError::ReservedBits { word, bits } => write!(
                f,
                "word {word:#018x} sets reserved/modifier bits {bits:#018x}"
            ),
            EncodeError::OperandOutOfRange { field, value } => write!(
                f,
                "{field} field {value:#05x} is outside the VGPR window 256..512"
            ),
        }
    }
}

impl std::error::Error for EncodeError {}

/// The MI200 VOP3P-MAI opcode table: `(opcode, mnemonic)`.
pub const OPCODE_TABLE: &[(u8, &str)] = &[
    (0x40, "v_mfma_f32_32x32x1f32"),
    (0x41, "v_mfma_f32_16x16x1f32"),
    (0x42, "v_mfma_f32_4x4x1f32"),
    (0x44, "v_mfma_f32_32x32x2f32"),
    (0x45, "v_mfma_f32_16x16x4f32"),
    (0x48, "v_mfma_f32_32x32x4f16"),
    (0x49, "v_mfma_f32_16x16x4f16"),
    (0x4A, "v_mfma_f32_4x4x4f16"),
    (0x4C, "v_mfma_f32_32x32x8f16"),
    (0x4D, "v_mfma_f32_16x16x16f16"),
    (0x50, "v_mfma_i32_32x32x4i8"),
    (0x51, "v_mfma_i32_16x16x4i8"),
    (0x52, "v_mfma_i32_4x4x4i8"),
    (0x54, "v_mfma_i32_32x32x8i8"),
    (0x55, "v_mfma_i32_16x16x16i8"),
    (0x58, "v_mfma_f32_32x32x2bf16"),
    (0x59, "v_mfma_f32_16x16x2bf16"),
    (0x5A, "v_mfma_f32_4x4x2bf16"),
    (0x5C, "v_mfma_f32_32x32x4bf16"),
    (0x5D, "v_mfma_f32_16x16x8bf16"),
    (0x63, "v_mfma_f32_32x32x4bf16_1k"),
    (0x64, "v_mfma_f32_16x16x4bf16_1k"),
    (0x65, "v_mfma_f32_4x4x4bf16_1k"),
    (0x66, "v_mfma_f32_32x32x8bf16_1k"),
    (0x67, "v_mfma_f32_16x16x16bf16_1k"),
    (0x6E, "v_mfma_f64_16x16x4f64"),
    (0x6F, "v_mfma_f64_4x4x4f64"),
];

/// Looks up the VOP3P-MAI opcode for an instruction.
pub fn opcode_of(instr: &MatrixInstruction) -> Result<u8, EncodeError> {
    if instr.arch != MatrixArch::Cdna2 {
        return Err(EncodeError::NoOpcode(instr.mnemonic()));
    }
    let m = instr.mnemonic();
    OPCODE_TABLE
        .iter()
        .find(|(_, name)| *name == m)
        .map(|(op, _)| *op)
        .ok_or(EncodeError::NoOpcode(m))
}

/// Builds an encoding for an instruction with concrete registers.
pub fn encode_instance(
    instr: &MatrixInstruction,
    vdst: Reg,
    src0: Reg,
    src1: Reg,
    src2: Reg,
) -> Result<MfmaEncoding, EncodeError> {
    Ok(MfmaEncoding {
        opcode: opcode_of(instr)?,
        vdst,
        src0,
        src1,
        src2,
    })
}

impl MfmaEncoding {
    /// Packs the instruction into its 64-bit machine word
    /// (DWORD1 in the high half).
    pub fn to_u64(&self) -> u64 {
        let vdst_n = match self.vdst {
            Reg::V(n) | Reg::A(n) => u32::from(n),
        };
        let dword0: u32 = (VOP3P_ENCODING << 23)
            | (u32::from(self.opcode) << 16)
            | (u32::from(self.vdst.is_acc()) << 15)
            | vdst_n;
        let dword1: u32 = (u32::from(self.src2.is_acc()) << 28)
            | (u32::from(self.src1.is_acc()) << 27)
            | ((self.src2.field() & 0x1FF) << 18)
            | ((self.src1.field() & 0x1FF) << 9)
            | (self.src0.field() & 0x1FF);
        (u64::from(dword1) << 32) | u64::from(dword0)
    }

    /// Unpacks a 64-bit machine word.
    pub fn from_u64(word: u64) -> Result<MfmaEncoding, EncodeError> {
        let dword0 = (word & 0xFFFF_FFFF) as u32;
        let dword1 = (word >> 32) as u32;
        if dword0 >> 23 != VOP3P_ENCODING {
            return Err(EncodeError::NotVop3p(word));
        }
        let opcode = ((dword0 >> 16) & 0x7F) as u8;
        if !OPCODE_TABLE.iter().any(|(op, _)| *op == opcode) {
            return Err(EncodeError::UnknownOpcode(opcode));
        }
        if word & RESERVED_MASK != 0 {
            return Err(EncodeError::ReservedBits {
                word,
                bits: word & RESERVED_MASK,
            });
        }
        let unfield = |f: u32, name: &'static str, acc: bool| -> Result<Reg, EncodeError> {
            // The 9-bit operand space below 256 names SGPRs and inline
            // constants, which are not valid MFMA matrix sources.
            let n = f.checked_sub(256).ok_or(EncodeError::OperandOutOfRange {
                field: name,
                value: f,
            })? as u8;
            Ok(if acc { Reg::A(n) } else { Reg::V(n) })
        };
        let acc_cd = (dword0 >> 15) & 1 == 1;
        Ok(MfmaEncoding {
            opcode,
            vdst: if acc_cd {
                Reg::A((dword0 & 0xFF) as u8)
            } else {
                Reg::V((dword0 & 0xFF) as u8)
            },
            src0: unfield(dword1 & 0x1FF, "src0", false)?,
            src1: unfield((dword1 >> 9) & 0x1FF, "src1", (dword1 >> 27) & 1 == 1)?,
            src2: unfield((dword1 >> 18) & 0x1FF, "src2", (dword1 >> 28) & 1 == 1)?,
        })
    }

    /// The mnemonic this encoding's opcode names.
    pub fn mnemonic(&self) -> &'static str {
        OPCODE_TABLE
            .iter()
            .find(|(op, _)| *op == self.opcode)
            .map(|(_, name)| *name)
            .expect("constructed from the table")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::cdna2_catalog;
    use mc_types::DType;

    #[test]
    fn every_catalog_instruction_has_an_opcode() {
        for i in cdna2_catalog().instructions() {
            let op = opcode_of(i).unwrap_or_else(|e| panic!("{e}"));
            assert!((0x40..=0x6F).contains(&op), "{}: {op:#x}", i.mnemonic());
        }
    }

    #[test]
    fn known_opcodes() {
        let c = cdna2_catalog();
        let mixed = c.find(DType::F32, DType::F16, 16, 16, 16).unwrap();
        assert_eq!(opcode_of(mixed).unwrap(), 0x4D);
        let f64i = c.find(DType::F64, DType::F64, 16, 16, 4).unwrap();
        assert_eq!(opcode_of(f64i).unwrap(), 0x6E);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let c = cdna2_catalog();
        for i in c.instructions() {
            let enc = encode_instance(i, Reg::A(0), Reg::V(4), Reg::V(6), Reg::A(0)).unwrap();
            let word = enc.to_u64();
            let back = MfmaEncoding::from_u64(word).unwrap();
            assert_eq!(back, enc, "{}", i.mnemonic());
            assert_eq!(back.mnemonic(), i.mnemonic());
        }
    }

    #[test]
    fn encoding_marker_and_fields() {
        let c = cdna2_catalog();
        let mixed = c.find(DType::F32, DType::F16, 16, 16, 16).unwrap();
        let enc = encode_instance(mixed, Reg::A(8), Reg::V(2), Reg::V(4), Reg::A(8)).unwrap();
        let word = enc.to_u64();
        // DWORD0 marker.
        assert_eq!((word as u32) >> 23, VOP3P_ENCODING);
        // ACC_CD set (destination is an AccVGPR).
        assert_eq!((word >> 15) & 1, 1);
        // SRC0 field carries the +256 VGPR offset.
        assert_eq!((word >> 32) & 0x1FF, 256 + 2);
    }

    #[test]
    fn rejects_non_mfma_words_and_foreign_arch() {
        assert!(matches!(
            MfmaEncoding::from_u64(0xDEAD_BEEF_0000_0000),
            Err(EncodeError::NotVop3p(_))
        ));
        // VOP3P marker but a non-MFMA opcode (0x00).
        let bogus = u64::from(VOP3P_ENCODING << 23);
        assert!(matches!(
            MfmaEncoding::from_u64(bogus),
            Err(EncodeError::UnknownOpcode(0))
        ));
        let ampere = crate::catalog::ampere_catalog()
            .find(DType::F64, DType::F64, 8, 8, 4)
            .unwrap();
        assert!(matches!(opcode_of(ampere), Err(EncodeError::NoOpcode(_))));
    }

    #[test]
    fn rejects_reserved_and_modifier_bits() {
        let c = cdna2_catalog();
        let mixed = c.find(DType::F32, DType::F16, 16, 16, 16).unwrap();
        let good = encode_instance(mixed, Reg::A(0), Reg::V(0), Reg::V(2), Reg::A(0))
            .unwrap()
            .to_u64();
        // Every single bit of the reserved/modifier mask must be caught.
        for bit in 0..64 {
            let mask = 1u64 << bit;
            if RESERVED_MASK & mask == 0 {
                continue;
            }
            match MfmaEncoding::from_u64(good | mask) {
                Err(EncodeError::ReservedBits { bits, .. }) => assert_eq!(bits, mask),
                other => panic!("bit {bit}: expected ReservedBits, got {other:?}"),
            }
        }
        // And the clean word still decodes.
        assert!(MfmaEncoding::from_u64(good).is_ok());
    }

    #[test]
    fn rejects_sub_vgpr_operand_fields() {
        let c = cdna2_catalog();
        let mixed = c.find(DType::F32, DType::F16, 16, 16, 16).unwrap();
        let good = encode_instance(mixed, Reg::A(0), Reg::V(4), Reg::V(6), Reg::A(8))
            .unwrap()
            .to_u64();
        // Clear each source field in turn: field values below 256 name
        // SGPRs/constants, which `from_u64` must reject by field name.
        for (shift, name) in [(32, "src0"), (41, "src1"), (50, "src2")] {
            let broken = good & !(0x1FFu64 << shift);
            match MfmaEncoding::from_u64(broken) {
                Err(EncodeError::OperandOutOfRange { field, value }) => {
                    assert_eq!(field, name);
                    assert!(value < 256, "{value}");
                }
                other => panic!("{name}: expected OperandOutOfRange, got {other:?}"),
            }
        }
    }

    #[test]
    fn opcode_table_is_unique_and_matches_catalog_mnemonics() {
        let mut seen = std::collections::HashSet::new();
        for (op, name) in OPCODE_TABLE {
            assert!(seen.insert(*op), "duplicate opcode {op:#x}");
            assert!(
                cdna2_catalog().by_mnemonic(name).is_some(),
                "{name} not in catalog"
            );
        }
        // And the reverse: every catalog entry appears in the table.
        assert_eq!(OPCODE_TABLE.len(), cdna2_catalog().instructions().len());
    }
}
