
_start:
	j over
	.byte 1
	.align 4
	.word 0xdeadbeef
	.ascii "abcd"
over:	halt
	.align 16
tail:	nop
