_start:
	beq a0, a1, x
	.byte 1
x:
