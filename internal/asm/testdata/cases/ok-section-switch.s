
	.data
d1:	.quad 1
	.text
_start:	la a0, d1
	.rodata
r1:	.quad 2
	.data
d2:	.quad d1, r1, b1
	.bss
b1:	.space 8
	.text
	la a1, d2
	halt
;;; file two.s
t2:	la a0, b1
	.bss
b2:	.space 8
