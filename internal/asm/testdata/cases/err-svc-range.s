_start:
	svc 8192
