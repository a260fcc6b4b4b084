
	.text
	.global _start
_start:
	add a0, a1, a2
	sub t0, t1, t2
	mul s0, s1, s2
	div a0, a1, a2
	divu a0, a1, a2
	rem a0, a1, a2
	remu a0, a1, a2
	and a0, a1, a2
	or a0, a1, a2
	xor a0, a1, a2
	sll a0, a1, a2
	srl a0, a1, a2
	sra a0, a1, a2
	slt a0, a1, a2
	sltu a0, a1, a2
	ADD A0, A1, X31
	addi a0, a1, -8192
	andi a0, a1, 8191
	ori a0, a1, 0x7f
	xori a0, a1, -1
	slli a0, a1, 63
	srli a0, a1, 1
	srai a0, a1, (1+2)*3
	slti a0, a1, 'a'
	lb a0, 0(sp)
	lbu a0, -1(sp)
	lh a0, 2(sp)
	lhu a0, (sp)
	lw a0, 4 ( sp )
	lwu a0, 4+4(sp)
	ld a0, (2*(3+1))(s0)
	fld f1, 8(a0)
	ll a0, (t0)
	sb a0, 0(sp)
	sh a0, 2(sp)
	sw a0, 4(sp)
	sd a0, -8(sp)
	fsd f31, 16(a0)
	beq a0, a1, _start
	bne a0, a1, fwd
	blt a0, a1, fwd
	bge a0, a1, fwd
	bltu a0, a1, fwd
	bgeu a0, a1, fwd
	bgt a0, a1, fwd
	ble a0, a1, fwd
	bgtu a0, a1, fwd
	bleu a0, a1, fwd
	beqz a0, fwd
	bnez a0, fwd
	bltz a0, fwd
	bgez a0, fwd
	bgtz a0, fwd
	blez a0, fwd
fwd:
	fadd f0, f1, f2
	fsub f0, f1, f2
	fmul f0, f1, f2
	fdiv f0, f1, f2
	fmin f0, f1, f2
	fmax f0, f1, f2
	fsqrt f0, f1
	fneg f0, f1
	fabs f0, f1
	fexp f0, f1
	fln f0, f1
	fmv f0, f1
	feq a0, f1, f2
	flt a0, f1, f2
	fle a0, f1, f2
	sc a0, a1, (t0)
	cas a0, a1, (t0)
	amoadd a0, a1, 0(t0)
	amoswap a0, a1, ( t0 )
	fence
	nop
	ebreak
	jal fwd
	jal t0, fwd
	j fwd
	call _start
	jalr t0
	jalr t0, t1
	jalr t0, t1, 4
	jalr zero, ra, off
	jr t0
	ret
	li a0, 0
	li a0, -8192
	li a0, 8191
	li a0, 8192
	li a0, -8193
	li a0, 2147483647
	li a0, -2147483648
	li a0, 2147483648
	li a0, 0xffffffffffffffff
	li a0, 0x8000000000000000
	li a0, off
	li a0, late
	li a0, fwd
	lid a0, fwd
	lid a0, 0x123456789abcdef0
	la a0, blob
	la a0, blob+8
	mv a0, a1
	not a0, a1
	neg a0, a1
	snez a0, a1
	seqz a0, a1
	svc
	svc 0
	svc 5
	hint
	moviw a0, 123
	moviw a0, fwd
	movid a0, -1
	movid a0, blob
	fmovd f0, 1.5
	fli f1, -2.5e-3
	fli f2, 0x1p-2
	fli f3, inf
	fmv.x.d a0, f0
	fmv.d.x f0, a0
	fcvt.d.l f0, a0
	fcvt.l.d a0, f0
	halt
	.equ off, 12
	.set late, 0x7fffffff
	.rodata
msg:	.asciz "hi\n\t\"q\" \\ \x41\0"
	.ascii "no nul"
	.align 8
tbl:	.quad msg, tbl, fwd, 1, -1
	.word 1, 2, fwd
	.half 1, 0xffff
	.byte 1, 2, 3, 'x', '\n'
	.double 1.0, -0.5, 3e10
	.data
blob:	.space 24
	.space 8, 0xaa
	.quad blob - msg
	.bss
	.align 16
zeros:	.space 4096
end:
