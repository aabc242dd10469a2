#include "textflag.h"

// CONST4 is a read-only 32-byte vector of four copies of a 64-bit value.
#define CONST4(name, bits) \
	DATA name<>+0(SB)/8, bits; DATA name<>+8(SB)/8, bits; DATA name<>+16(SB)/8, bits; DATA name<>+24(SB)/8, bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

// mulK is the stream's k-step multiplier pcgMul^k, mulKHi its high half.
CONST4(mul1, $0x5851f42d4c957f2d)
CONST4(mul1Hi, $0x000000005851f42d)
CONST4(mul2, $0x685f98a2018fade9)
CONST4(mul2Hi, $0x00000000685f98a2)
CONST4(mul3, $0x0b046976f22528f5)
CONST4(mul3Hi, $0x000000000b046976)
CONST4(mul16, $0x8d5e2ddc895abe41)
CONST4(mul16Hi, $0x000000008d5e2ddc)
CONST4(two20, $0x4130000000000000) // 2^20, whose ulp is 2^-32
CONST4(magic52, $0x4330000000000000) // 2^52, whose ulp is 1
CONST4(magic52Bias, $0x43300000000003fe) // 2^52 + 1022: a biased exponent in magic52 less this is Frexp's
CONST4(mantissa, $0x000fffffffffffff)
CONST4(half, $0x3fe0000000000000) // 0.5, whose ulp is 2^-53
CONST4(one, $0x3ff0000000000000)
CONST4(two, $0x4000000000000000)
CONST4(minusTwo, $0xc000000000000000)
CONST4(hSqrt2, $0x3fe6a09e667f3bcd) // log_amd64.s's constants
CONST4(ln2Hi, $0x3fe62e42fee00000)
CONST4(ln2Lo, $0x3dea39ef35793c76)
CONST4(logL1, $0x3fe5555555555593)
CONST4(logL2, $0x3fd999999997fa04)
CONST4(logL3, $0x3fd2492494229359)
CONST4(logL4, $0x3fcc71c51d8e78af)
CONST4(logL5, $0x3fc7466496cb03de)
CONST4(logL6, $0x3fc39a09d078c69f)
CONST4(logL7, $0x3fc2f112df3e5244)
CONST4(twoPi, $0x401921fb54442d18) // 2*math.Pi, NormFloat32's
CONST4(fourOverPi, $0x3ff45f306dc9c883) // sin.go's constants
CONST4(pi4A, $0x3fe921fb40000000)
CONST4(pi4B, $0x3e64442d00000000)
CONST4(pi4C, $0x3ce8469898cc5170)
CONST4(sin0, $0x3de5d8fd1fd19ccd)
CONST4(sin1, $0xbe5ae5e5a9291f5d)
CONST4(sin2, $0x3ec71de3567d48a1)
CONST4(sin3, $0xbf2a01a019bfdf03)
CONST4(sin4, $0x3f8111111110f7d0)
CONST4(sin5, $0xbfc5555555555548)
CONST4(cos0, $0xbda8fa49a0861a9b)
CONST4(cos1, $0x3e21ee9d7b4e3f05)
CONST4(cos2, $0xbe927e4f7eac4bc6)
CONST4(cos3, $0x3efa01a019c844f5)
CONST4(cos4, $0xbf56c16c16c14f91)
CONST4(cos5, $0x3fa555555555554b)
CONST4(signBit, $0x8000000000000000)
CONST4(ones32, $0x0000000100000001) // dword 1s
CONST4(twos32, $0x0000000200000002) // dword 2s

// WORD sets the low dword of each lane of W to the PCG-XSH-RR output of
// the lane's state in S, leaving junk in the high dword: x = ((s>>18)^s)>>27
// in its low dword, copied into the high one, shifted right by s>>59 as a
// 64-bit lane — the low dword is x rotated right. W is not S; T is
// clobbered.
#define WORD(S, W, T) \
	VPSRLQ  $18, S, W; \
	VPXOR   S, W, W; \
	VPSRLQ  $27, W, W; \
	VPSHUFD $0xa0, W, W; \
	VPSRLQ  $59, S, T; \
	VPSRLVQ T, W, W

// MULADD sets D to each lane of S times M plus ADD, mod 2^64: the 64-bit
// product from three 32x32 VPMULUDQs, lo*lo + (hi*lo + lo*hi)<<32. HS holds
// S>>32, MLO M (its low half is read), MHI M>>32. D may be S; T1, T2 are
// clobbered.
#define MULADD(S, HS, MLO, MHI, ADD, D, T1, T2) \
	VPMULUDQ MLO, HS, T1; \
	VPMULUDQ MHI, S, T2; \
	VPADDQ   T2, T1, T1; \
	VPSLLQ   $32, T1, T1; \
	VPMULUDQ MLO, S, D; \
	VPADDQ   T1, D, D; \
	VPADDQ   ADD, D, D

// UNIFORM turns the words in the low dwords of HI and LO (HI gets the
// result) into rng.Float64's uniform float64(hi<<21 | lo>>11) * 2^-53, as
// hi*2^-32 + (lo>>11)*2^-53: each term is exact, and so is their sum, a
// multiple of 2^-53 below 1. Blending a power of two's high dword over a
// lane's high dword makes the lane that power plus its low dword in the
// power's ulps; subtracting the power leaves the term.
#define UNIFORM(HI, LO) \
	VPBLENDD $0xaa, two20<>(SB), HI, HI; \
	VSUBPD   two20<>(SB), HI, HI; \
	VPSRLD   $11, LO, LO; \
	VPBLENDD $0xaa, half<>(SB), LO, LO; \
	VSUBPD   half<>(SB), LO, LO; \
	VADDPD   LO, HI, HI

// POLY6 sets P to ((((C0*zz + C1)*zz + C2)*zz + C3)*zz + C4)*zz + C5, zz
// in ZZ.
#define POLY6(ZZ, P, C0, C1, C2, C3, C4, C5) \
	VMULPD C0, ZZ, P; \
	VADDPD C1, P, P; \
	VMULPD ZZ, P, P; \
	VADDPD C2, P, P; \
	VMULPD ZZ, P, P; \
	VADDPD C3, P, P; \
	VMULPD ZZ, P, P; \
	VADDPD C4, P, P; \
	VMULPD ZZ, P, P; \
	VADDPD C5, P, P

// func boxMuller4AVX2(dst *float32, groups int, s0, s1, s2, s3, add2, add3, inc, add16 uint64) (state uint64, done int)
//
// Writes groups*4 normals to dst, four per step. Lane i of the state vector
// starts at s_i, the stream 4i steps on, and draws normal 4g+i of each group
// g from the words of its state and of the states 1, 2 and 3 steps on
// (mulK, addK; add1 is inc), each computed from its state directly; the
// lane then jumps 16 steps (mul16, add16) to its state of the next group.
// Each normal is rng.NormFloat32's
//
//	float32(math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2))
//
// with math.Log as log_amd64.s computes it and math.Cos as sin.go's cos
// does, operation for operation on four float64 lanes: no FMA, VDIVPD and
// VSQRTPD round as DIVSD and SQRTSD do, both of cos's polynomials are
// computed and the octant's choice and sign blended in. It stops before a
// group in which some u1 is 0, and returns lane 0's state at the start of
// the first group it did not write, and how many groups it wrote.
TEXT ·boxMuller4AVX2(SB), NOSPLIT, $0-96
	MOVQ         dst+0(FP), DI
	MOVQ         groups+8(FP), CX
	VMOVQ        s0+16(FP), X0
	VPINSRQ      $1, s1+24(FP), X0, X0
	VMOVQ        s2+32(FP), X1
	VPINSRQ      $1, s3+40(FP), X1, X1
	VINSERTI128  $1, X1, Y0, Y0           // Y0 = lane states
	VPBROADCASTQ add2+48(FP), Y13
	VPBROADCASTQ add3+56(FP), Y14
	VPBROADCASTQ inc+64(FP), Y12
	VPBROADCASTQ add16+72(FP), Y15
	XORQ         BX, BX

loop:
	CMPQ BX, CX
	JGE  done
	VPSRLQ $32, Y0, Y11
	WORD(Y0, Y1, Y5)
	MULADD(Y0, Y11, mul1<>(SB), mul1Hi<>(SB), Y12, Y7, Y5, Y6)
	WORD(Y7, Y2, Y5)
	MULADD(Y0, Y11, mul2<>(SB), mul2Hi<>(SB), Y13, Y8, Y5, Y6)
	WORD(Y8, Y3, Y5)
	MULADD(Y0, Y11, mul3<>(SB), mul3Hi<>(SB), Y14, Y9, Y5, Y6)
	WORD(Y9, Y4, Y5)

	UNIFORM(Y1, Y2)                       // Y1 = u1
	VXORPD    Y5, Y5, Y5
	VCMPPD    $0, Y5, Y1, Y5              // u1 == 0
	VMOVMSKPD Y5, AX
	TESTL     AX, AX
	JNZ       done
	MULADD(Y0, Y11, mul16<>(SB), mul16Hi<>(SB), Y15, Y0, Y5, Y6)
	UNIFORM(Y3, Y4)                       // Y3 = u2

	// log(u1), log_amd64.s's sequence. f1, k := Frexp(u1).
	VPAND  mantissa<>(SB), Y1, Y2
	VPOR   half<>(SB), Y2, Y2             // Y2 = f1
	VPSRLQ $52, Y1, Y4
	VPOR   magic52<>(SB), Y4, Y4
	VSUBPD magic52Bias<>(SB), Y4, Y4      // Y4 = k
	// if f1 <= Sqrt2/2 { k -= 1; f1 *= 2 }, as CMPSD's not-less-than.
	VCMPPD $2, hSqrt2<>(SB), Y2, Y5
	VANDPD one<>(SB), Y5, Y5
	VSUBPD Y5, Y4, Y4
	VADDPD one<>(SB), Y5, Y5
	VMULPD Y5, Y2, Y2
	VSUBPD one<>(SB), Y2, Y2              // Y2 = f = f1 - 1
	VADDPD two<>(SB), Y2, Y5
	VDIVPD Y5, Y2, Y5                     // Y5 = s = f / (2 + f)
	VMULPD Y5, Y5, Y6                     // Y6 = s2
	VMULPD Y6, Y6, Y7                     // Y7 = s4
	VMULPD logL7<>(SB), Y7, Y8
	VADDPD logL5<>(SB), Y8, Y8
	VMULPD Y7, Y8, Y8
	VADDPD logL3<>(SB), Y8, Y8
	VMULPD Y7, Y8, Y8
	VADDPD logL1<>(SB), Y8, Y8
	VMULPD Y8, Y6, Y8                     // Y8 = t1
	VMULPD logL6<>(SB), Y7, Y9
	VADDPD logL4<>(SB), Y9, Y9
	VMULPD Y7, Y9, Y9
	VADDPD logL2<>(SB), Y9, Y9
	VMULPD Y9, Y7, Y9                     // Y9 = t2
	VADDPD Y9, Y8, Y8                     // Y8 = R
	VMULPD half<>(SB), Y2, Y6
	VMULPD Y2, Y6, Y6                     // Y6 = hfsq = 0.5*f*f
	VADDPD Y6, Y8, Y8                     // hfsq + R
	VMULPD Y8, Y5, Y5                     // s*(hfsq+R)
	VMULPD ln2Lo<>(SB), Y4, Y7
	VADDPD Y7, Y5, Y5                     // s*(hfsq+R) + k*Ln2Lo
	VSUBPD Y5, Y6, Y6
	VSUBPD Y2, Y6, Y6                     // (hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f
	VMULPD ln2Hi<>(SB), Y4, Y4
	VSUBPD Y6, Y4, Y4                     // Y4 = log(u1)
	VMULPD minusTwo<>(SB), Y4, Y4
	VSQRTPD Y4, Y4                        // Y4 = math.Sqrt(-2*log(u1))

	// cos(x), x = 2*math.Pi*u2 in [0, 2*Pi): sin.go's cos below its
	// reduction threshold. j = uint64(x * (4/Pi)); odd j and y step up.
	VMULPD      twoPi<>(SB), Y3, Y3       // Y3 = x
	VMULPD      fourOverPi<>(SB), Y3, Y5
	VCVTTPD2DQY Y5, X6
	VPAND       ones32<>(SB), X6, X7
	VPADDD      X7, X6, X6                // X6 = j
	VCVTDQ2PD   X6, Y7                    // Y7 = y
	VMULPD      pi4A<>(SB), Y7, Y8
	VSUBPD      Y8, Y3, Y8
	VMULPD      pi4B<>(SB), Y7, Y9
	VSUBPD      Y9, Y8, Y8
	VMULPD      pi4C<>(SB), Y7, Y9
	VSUBPD      Y9, Y8, Y8                // Y8 = z = ((x - y*PI4A) - y*PI4B) - y*PI4C
	VMULPD      Y8, Y8, Y9                // Y9 = zz
	POLY6(Y9, Y10, sin0<>(SB), sin1<>(SB), sin2<>(SB), sin3<>(SB), sin4<>(SB), sin5<>(SB))
	VMULPD      Y9, Y8, Y1
	VMULPD      Y10, Y1, Y1
	VADDPD      Y1, Y8, Y1                // Y1 = z + z*zz*P, the octant's sine form
	POLY6(Y9, Y10, cos0<>(SB), cos1<>(SB), cos2<>(SB), cos3<>(SB), cos4<>(SB), cos5<>(SB))
	VMULPD      Y9, Y9, Y2
	VMULPD      Y10, Y2, Y2
	VMULPD      half<>(SB), Y9, Y5
	VMOVUPD     one<>(SB), Y3
	VSUBPD      Y5, Y3, Y5
	VADDPD      Y2, Y5, Y2                // Y2 = 1.0 - 0.5*zz + zz*zz*Q, the cosine form
	// j&7 in {2, 6} takes the sine form; j&7 in {2, 4} negates.
	VPAND       twos32<>(SB), X6, X10
	VPCMPEQD    twos32<>(SB), X10, X10
	VPMOVSXDQ   X10, Y10
	VBLENDVPD   Y10, Y1, Y2, Y1
	VPSLLD      $30, X6, X5
	VPSLLD      $29, X6, X7
	VPXOR       X7, X5, X5                // dword sign bit = bit 1 ^ bit 2 of j
	VPMOVSXDQ   X5, Y5
	VPAND       signBit<>(SB), Y5, Y5
	VXORPD      Y5, Y1, Y1                // Y1 = cos(x)

	VMULPD     Y1, Y4, Y4
	VCVTPD2PSY Y4, X4
	VMOVUPS    X4, (DI)
	ADDQ       $16, DI
	INCQ       BX
	JMP        loop

done:
	VMOVQ      X0, AX
	MOVQ       AX, state+80(FP)
	MOVQ       BX, done+88(FP)
	VZEROUPPER
	RET
