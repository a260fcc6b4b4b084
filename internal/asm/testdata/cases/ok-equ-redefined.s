
	.equ N, 4
_start:
	li a0, N
	addi a0, a0, N
	.data
buf:	.space N
	.equ N, 100
	.space N
	.quad N
	.text
	li a1, N
	addi a1, a1, N
	svc N
	.equ N, 7
