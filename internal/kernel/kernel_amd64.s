//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 bodies for the scoring-stack kernels. Shared conventions:
//
//   - every body handles any length ≥ 0: a ymm main loop plus a scalar
//     tail, so the Go front doors' size thresholds are policy only;
//   - loads and stores are unaligned (VMOVDQU) — score rows and mask
//     words are 8-byte aligned by the Go allocator, not 32-byte;
//   - int64/uint64 adds are exact, so the 4-lane vpaddq reassociation is
//     bit-identical to the scalar reference (see the package doc);
//   - VZEROUPPER before every RET keeps later SSE code off the
//     ymm-transition penalty.

// func addAVX2(dst, src []int64)
//
// Two ymm lanes (8 int64) per iteration: load dst, vpaddq the src lanes
// in, store back. The Go front door has already checked the lengths
// match.
TEXT ·addAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ CX, DX
	ANDQ $-8, DX
	XORQ AX, AX
add_loop8:
	CMPQ AX, DX
	JGE  add_tail
	VMOVDQU (DI)(AX*8), Y0
	VMOVDQU 32(DI)(AX*8), Y1
	VPADDQ (SI)(AX*8), Y0, Y0
	VPADDQ 32(SI)(AX*8), Y1, Y1
	VMOVDQU Y0, (DI)(AX*8)
	VMOVDQU Y1, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  add_loop8
add_tail:
	CMPQ AX, CX
	JGE  add_done
	MOVQ (SI)(AX*8), BX
	ADDQ BX, (DI)(AX*8)
	INCQ AX
	JMP  add_tail
add_done:
	VZEROUPPER
	RET

// func maskNeq32AVX2(dst []uint64, xs []int32, sentinel int32)
//
// Per full output word: eight blocks of 8 int32 lanes are VPCMPEQD'd
// against the broadcast sentinel; VMOVMSKPS extracts the 8 lane sign
// bits (the compare result's top bits) as an equality byte, which is
// inverted to a neq byte and OR-shifted into place — 64 lanes become one
// LSB-first word with 8 compares + 8 movemasks and no branches on lane
// values. The <64-lane tail runs the branchless scalar compare
// (d|-d)>>31 per lane into a zero-padded final word.
TEXT ·maskNeq32AVX2(SB), NOSPLIT, $0-52
	MOVQ dst_base+0(FP), DI
	MOVQ xs_base+24(FP), SI
	MOVQ xs_len+32(FP), R13
	MOVL sentinel+48(FP), R14
	MOVL R14, AX
	VMOVD AX, X15
	VPBROADCASTD X15, Y15
	MOVQ R13, DX
	SHRQ $6, DX            // DX = number of full 64-lane words
	XORQ R8, R8            // word index
	XORQ R9, R9            // running byte offset into xs
mask_wloop:
	CMPQ R8, DX
	JGE  mask_tailw
	XORQ R10, R10          // accumulator for this word
	XORQ CX, CX            // bit offset of current 8-lane block
mask_blk:
	VMOVDQU (SI)(R9*1), Y0
	VPCMPEQD Y15, Y0, Y0
	VMOVMSKPS Y0, R12
	XORQ $0xFF, R12        // eq byte -> neq byte
	SHLQ CL, R12
	ORQ  R12, R10
	ADDQ $32, R9
	ADDL $8, CX
	CMPL CX, $64
	JLT  mask_blk
	MOVQ R10, (DI)(R8*8)
	INCQ R8
	JMP  mask_wloop
mask_tailw:
	MOVQ DX, R9
	SHLQ $6, R9            // first tail lane index
	CMPQ R9, R13
	JGE  mask_done
	XORQ R10, R10
	XORQ CX, CX
mask_tloop:
	MOVL (SI)(R9*4), AX
	XORL R14, AX           // d = lane ^ sentinel (zero iff equal)
	MOVL AX, BX
	NEGL BX
	ORL  BX, AX
	SHRL $31, AX           // (d | -d) >> 31 = lane != sentinel
	SHLQ CL, AX
	ORQ  AX, R10
	INCQ R9
	INCL CX
	CMPQ R9, R13
	JLT  mask_tloop
	MOVQ R10, (DI)(DX*8)
mask_done:
	VZEROUPPER
	RET

// func popcountWordsAVX2(ws []uint64) int
//
// Nibble-LUT popcount: each 32-byte lane is split into low/high nibbles,
// VPSHUFB looks both up in the 16-entry bit-count table, VPADDB merges
// them to per-byte counts (≤ 8, no overflow), and VPSADBW against zero
// folds each 8-byte group into a qword added to the running ymm
// accumulator — 4 words per iteration. The ≤3-word tail uses scalar
// POPCNTQ (baseline on every AVX2-capable part).
TEXT ·popcountWordsAVX2(SB), NOSPLIT, $0-32
	MOVQ ws_base+0(FP), SI
	MOVQ ws_len+8(FP), CX
	VBROADCASTI128 popLUT<>(SB), Y14
	VBROADCASTI128 nibMask<>(SB), Y13
	VPXOR Y12, Y12, Y12    // zero, for VPSADBW
	VPXOR Y15, Y15, Y15    // qword accumulator
	MOVQ CX, DX
	ANDQ $-4, DX
	XORQ AX, AX
pop_loop4:
	CMPQ AX, DX
	JGE  pop_reduce
	VMOVDQU (SI)(AX*8), Y0
	VPAND Y13, Y0, Y1      // low nibbles
	VPSRLW $4, Y0, Y0
	VPAND Y13, Y0, Y0      // high nibbles
	VPSHUFB Y1, Y14, Y1
	VPSHUFB Y0, Y14, Y0
	VPADDB Y1, Y0, Y0      // per-byte counts
	VPSADBW Y12, Y0, Y0    // 4 qword partial sums
	VPADDQ Y0, Y15, Y15
	ADDQ $4, AX
	JMP  pop_loop4
pop_reduce:
	VEXTRACTI128 $1, Y15, X0
	VPADDQ X0, X15, X0
	VPSHUFD $0x4E, X0, X1
	VPADDQ X1, X0, X0
	MOVQ X0, BX
pop_tail:
	CMPQ AX, CX
	JGE  pop_done
	POPCNTQ (SI)(AX*8), R9
	ADDQ R9, BX
	INCQ AX
	JMP  pop_tail
pop_done:
	MOVQ BX, ret+24(FP)
	VZEROUPPER
	RET

// func andNotWordsAVX2(dst, src []uint64)
//
// Two ymm lanes (8 words) per iteration of dst &^= src via VPANDN
// (which computes ^src1 & src2 — operand order pinned by the
// differential tests). Lengths already checked by the front door.
TEXT ·andNotWordsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ CX, DX
	ANDQ $-8, DX
	XORQ AX, AX
andn_loop8:
	CMPQ AX, DX
	JGE  andn_tail
	VMOVDQU (DI)(AX*8), Y0
	VMOVDQU 32(DI)(AX*8), Y1
	VMOVDQU (SI)(AX*8), Y2
	VMOVDQU 32(SI)(AX*8), Y3
	VPANDN Y0, Y2, Y0      // Y0 = ^Y2 & Y0 = dst &^ src
	VPANDN Y1, Y3, Y1
	VMOVDQU Y0, (DI)(AX*8)
	VMOVDQU Y1, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  andn_loop8
andn_tail:
	CMPQ AX, CX
	JGE  andn_done
	MOVQ (SI)(AX*8), BX
	NOTQ BX
	ANDQ BX, (DI)(AX*8)
	INCQ AX
	JMP  andn_tail
andn_done:
	VZEROUPPER
	RET

DATA popLUT<>+0(SB)/8, $0x0302020102010100
DATA popLUT<>+8(SB)/8, $0x0403030203020201
GLOBL popLUT<>(SB), RODATA|NOPTR, $16

DATA nibMask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibMask<>(SB), RODATA|NOPTR, $16

// func fillWordsAVX2(dst []uint64, val uint64)
//
// Two ymm lanes (8 words) of broadcast stores per iteration: val is
// splatted once with VPBROADCASTQ and streamed out with unaligned
// stores, scalar tail for the ragged end. Pure stores — no lane
// arithmetic — so there is nothing to reassociate.
TEXT ·fillWordsAVX2(SB), NOSPLIT, $0-32
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	VPBROADCASTQ val+24(FP), Y0
	MOVQ val+24(FP), BX
	MOVQ CX, DX
	ANDQ $-8, DX
	XORQ AX, AX
fw_loop8:
	CMPQ AX, DX
	JGE  fw_tail
	VMOVDQU Y0, (DI)(AX*8)
	VMOVDQU Y0, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  fw_loop8
fw_tail:
	CMPQ AX, CX
	JGE  fw_done
	MOVQ BX, (DI)(AX*8)
	INCQ AX
	JMP  fw_tail
fw_done:
	VZEROUPPER
	RET
