_start:
	j d
	.data
d:	.quad 0
