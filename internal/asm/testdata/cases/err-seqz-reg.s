_start:
	seqz a0, q
