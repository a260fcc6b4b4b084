_start:
	.space lbl
lbl:
