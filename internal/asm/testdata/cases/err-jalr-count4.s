_start:
	jalr a0, a1, 0, 0
