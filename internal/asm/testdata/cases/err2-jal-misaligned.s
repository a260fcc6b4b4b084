_start:
	j x
	.byte 1
x:
