_start:
	beq a0, a1, far
	.space 40000
far:
