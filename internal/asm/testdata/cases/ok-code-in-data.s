
_start:
	la a0, thunk
	jalr ra, a0, 0
	halt
	.data
thunk:
	li a0, 7
	beq a0, a0, 1f
	nop
1:	ret
