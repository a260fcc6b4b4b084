
_start:
1:	addi t0, t0, 1
	bne t0, t1, 1b
	beq t0, t1, 1f
	nop
1:	j 1b
2:	j 2f
	.data
1:	.quad 1b, 1f, 2b
1:	.quad 1b
	.text
2:	la a0, 1b
	jal 10f
10:	halt
