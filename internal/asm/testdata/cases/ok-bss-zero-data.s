
_start:	halt
	.bss
a:	.quad 0
b:	.byte 0, 0
c:	.asciz ""
d:	.double 0
	.align 64
e:	.space 100
f:	.word Z
	.equ Z, 0
